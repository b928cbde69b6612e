//! Shard supervision primitives: the batch mailbox, health, lifecycle
//! state and `/stats` counters one shard worker shares with the
//! dispatcher and the supervisor thread.
//!
//! The design goal is **structural exactly-once**: a batch a shard is
//! executing lives in the slot's [`active`] cell, and either the worker
//! takes it back to send replies or the supervisor steals it for
//! replay — both under the same mutex, checked against the slot's
//! [`epoch`], so a stolen batch can never also be answered by the
//! worker it was stolen from. No id-dedup set is needed (and none would
//! be correct: a request may legitimately be replayed twice if its
//! second shard also dies).
//!
//! Lifecycle (per shard):
//!
//! ```text
//! Healthy ──(no heartbeat for wedge_timeout while work pending)──▶ Wedged
//!    ▲                                                               │
//!    │                                       (epoch bump; steal+replay)
//!    │                                                               ▼
//!    └────────(respawn succeeds)──────── Restarting ◀──(thread exit)─┘
//!                                            │
//!                (restarts ≥ max_restarts)   ▼
//!                                          Dead   (traffic routes to survivors)
//! ```
//!
//! Idleness is exact: the mailbox lock also guards whether the worker
//! holds a batch (from [`ShardSlot::recv`]'s pop to [`ShardSlot::done`]),
//! so [`ShardSlot::load`] never reads 0 for a batch in transit between
//! the mailbox and the [`active`] cell — the dispatcher serves an idle
//! shard at once, and must not mistake a busy one for it.
//!
//! Heartbeats are a relaxed-atomic progress counter plus a clock stamp:
//! the worker bumps them every mailbox wake and every batch, the
//! supervisor reads them with the virtual-clock `now` so the whole
//! detector is testable without wall time.
//!
//! [`active`]: ShardSlot::active
//! [`epoch`]: ShardSlot::epoch

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a shard is in its supervision lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Worker thread running and heartbeating.
    Healthy = 0,
    /// Heartbeat stale while work was pending; the supervisor has
    /// abandoned the thread (epoch bump) and will respawn.
    Wedged = 1,
    /// Worker gone (exit or abandonment); waiting out restart backoff.
    Restarting = 2,
    /// Restart budget exhausted — no further respawns; the dispatcher
    /// routes around this shard permanently.
    Dead = 3,
}

impl ShardState {
    /// Stable lowercase name (`/stats` reports it).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Wedged => "wedged",
            ShardState::Restarting => "restarting",
            ShardState::Dead => "dead",
        }
    }

    fn from_u8(v: u8) -> ShardState {
        match v {
            0 => ShardState::Healthy,
            1 => ShardState::Wedged,
            2 => ShardState::Restarting,
            _ => ShardState::Dead,
        }
    }
}

/// What a worker's mailbox `recv` produced.
#[derive(Debug)]
pub enum Recv<B> {
    /// A batch to execute.
    Batch(B),
    /// Timed out empty — heartbeat and wait again.
    Idle,
    /// Mailbox closed and drained (clean shutdown), or this worker's
    /// epoch is stale (it was abandoned): exit without touching more
    /// work.
    Stop,
}

struct Mailbox<B> {
    queue: VecDeque<B>,
    closed: bool,
    /// The worker holds a batch: set by the pop in [`ShardSlot::recv`],
    /// cleared by [`ShardSlot::done`] or a steal. Set under the same lock
    /// as the pop, so a batch leaving the queue is counted all the way —
    /// one popped but not yet parked by `set_active` still reads as busy.
    held: bool,
}

/// Everything one shard shares between its worker thread, the
/// dispatcher, and the supervisor.
pub struct ShardSlot<B> {
    mailbox: Mutex<Mailbox<B>>,
    /// Signals the worker: work arrived / mailbox closed / epoch bumped.
    work_cv: Condvar,
    /// The batch the worker is currently executing. The worker parks it
    /// here *before* running inference and takes it back (epoch-checked)
    /// to reply; the supervisor steals it from a dead or wedged worker
    /// for replay. The mutex makes reply-vs-replay mutually exclusive.
    active: Mutex<Option<B>>,
    /// Bumped by the supervisor when it abandons a worker. Workers
    /// capture their epoch at spawn and refuse to take work or reply
    /// once it is stale.
    epoch: AtomicU64,
    /// Relaxed heartbeat counter — monotone while the worker is live.
    progress: AtomicU64,
    /// Clock stamp of the last heartbeat (the supervisor's clock, so
    /// virtual under `VirtualClock`).
    last_beat_ns: AtomicU64,
    /// True from just before spawn until the worker thread unwinds
    /// (cleared by a drop guard, so panics clear it too).
    alive: AtomicBool,
    /// True from just before spawn until the worker has built its model
    /// and is actually draining the mailbox. A warming shard is alive
    /// but cannot serve yet — the dispatcher prefers warmed survivors
    /// (model builds can take ~100ms; routing into them stalls traffic)
    /// and the supervisor's wedge detector stands down for it.
    warming: AtomicBool,
    state: AtomicU8,
    restarts: AtomicU64,
    /// Requests stolen from this shard and re-enqueued.
    replayed: AtomicU64,
    /// Earliest instant (supervisor clock) the next respawn may happen.
    next_restart_at_ns: AtomicU64,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Requests this shard answered. This and the three fields below are
    /// `/stats` counters its workers publish: no invariant, hence open to
    /// the crate.
    pub(crate) requests: AtomicU64,
    /// Batches this shard executed.
    pub(crate) batches: AtomicU64,
    /// Demotions its current model's ladders have taken.
    pub(crate) demotions: AtomicU64,
    /// Active algorithm per conv, in op order.
    pub(crate) algorithms: Mutex<Vec<String>>,
}

impl<B> Default for ShardSlot<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> ShardSlot<B> {
    /// A fresh slot in `Healthy` state with an open, empty mailbox.
    pub fn new() -> Self {
        Self {
            mailbox: Mutex::new(Mailbox { queue: VecDeque::new(), closed: false, held: false }),
            work_cv: Condvar::new(),
            active: Mutex::new(None),
            epoch: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            last_beat_ns: AtomicU64::new(0),
            alive: AtomicBool::new(false),
            warming: AtomicBool::new(false),
            state: AtomicU8::new(ShardState::Healthy as u8),
            restarts: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            next_restart_at_ns: AtomicU64::new(0),
            handle: Mutex::new(None),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            algorithms: Mutex::new(Vec::new()),
        }
    }

    // ---- dispatcher side -------------------------------------------------

    /// Queued batch count (`/stats` reports it).
    pub fn depth(&self) -> usize {
        self.mailbox.lock().unwrap().queue.len()
    }

    /// Batches this shard owes: queued, plus the one its worker holds.
    /// The weighted dispatcher picks the minimum; 0 means *idle*, and an
    /// idle shard is served at once.
    pub fn load(&self) -> usize {
        let mb = self.mailbox.lock().unwrap();
        mb.queue.len() + mb.held as usize
    }

    /// Bounded send that never waits: hands the batch straight back when
    /// the mailbox is at `cap`, closed, or the worker is gone. One
    /// unresponsive shard (mailbox at cap, worker secretly wedged but not
    /// yet detected) therefore never holds the dispatch loop hostage —
    /// the dispatcher just tries the next shard.
    pub fn try_send(&self, batch: B, cap: usize) -> Result<(), B> {
        let mut mb = self.mailbox.lock().unwrap();
        if mb.closed || !self.alive.load(Ordering::Acquire) || mb.queue.len() >= cap {
            return Err(batch);
        }
        mb.queue.push_back(batch);
        self.work_cv.notify_one();
        Ok(())
    }

    // ---- worker side -----------------------------------------------------

    /// Worker mailbox wait: pops a batch, or times out (heartbeat and
    /// call again), or reports `Stop` when the mailbox is closed-and-
    /// drained or `my_epoch` went stale (this worker was abandoned). A
    /// popped batch is *held* until [`done`](Self::done).
    pub fn recv(&self, my_epoch: u64, timeout: Duration) -> Recv<B> {
        let mut mb = self.mailbox.lock().unwrap();
        if mb.queue.is_empty() && !mb.closed {
            mb = self.work_cv.wait_timeout(mb, timeout).unwrap().0;
        }
        if self.epoch.load(Ordering::Acquire) != my_epoch {
            return Recv::Stop;
        }
        match mb.queue.pop_front() {
            Some(batch) => {
                mb.held = true;
                Recv::Batch(batch)
            }
            None if mb.closed => Recv::Stop,
            None => Recv::Idle,
        }
    }

    /// The worker is done with the batch `recv` handed it (answered, or
    /// shed as expired). Returns whether the shard is now idle — mailbox
    /// empty — so the worker can wake a dispatcher that holds requests
    /// back. A stale worker changes nothing: the steal that abandoned it
    /// cleared the hold, which its replacement may own by now.
    pub fn done(&self, my_epoch: u64) -> bool {
        let mut mb = self.mailbox.lock().unwrap();
        if self.epoch.load(Ordering::Acquire) != my_epoch {
            return false;
        }
        mb.held = false;
        mb.queue.is_empty()
    }

    /// Record a heartbeat at `now_ns` (the supervisor's clock domain).
    pub fn beat(&self, now_ns: u64) {
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.last_beat_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Park the batch the worker is about to execute where the
    /// supervisor can steal it.
    pub fn set_active(&self, batch: B) {
        *self.active.lock().unwrap() = Some(batch);
    }

    /// Worker reclaims its active batch to reply — succeeds only if the
    /// batch is still there *and* the worker's epoch is current. A
    /// `None` means the supervisor stole it (or abandoned this worker):
    /// do not reply.
    pub fn take_active_if_current(&self, my_epoch: u64) -> Option<B> {
        let mut active = self.active.lock().unwrap();
        if self.epoch.load(Ordering::Acquire) != my_epoch {
            return None;
        }
        active.take()
    }

    /// Peek whether an active batch is outstanding (wedge detection
    /// counts it as pending work).
    pub fn has_active(&self) -> bool {
        self.active.lock().unwrap().is_some()
    }

    // ---- supervisor side -------------------------------------------------

    /// Abandon the current worker: bump the epoch (it will refuse to
    /// take or answer further work) and wake it so a parked worker can
    /// observe the bump and exit.
    pub fn bump_epoch(&self) -> u64 {
        let e = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.work_cv.notify_all();
        e
    }

    /// Current epoch (workers capture this at spawn).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Steal the in-flight batch (if the worker has not already taken
    /// it back) and every queued batch, oldest first, for replay. The
    /// abandoned worker's hold goes with them.
    pub fn steal_work(&self) -> (Option<B>, Vec<B>) {
        let active = self.active.lock().unwrap().take();
        let mut mb = self.mailbox.lock().unwrap();
        mb.held = false;
        let queued = mb.queue.drain(..).collect();
        (active, queued)
    }

    /// Close the mailbox: no further sends; the worker drains what is
    /// queued and exits.
    pub fn close(&self) {
        self.mailbox.lock().unwrap().closed = true;
        self.work_cv.notify_all();
    }

    // ---- health bookkeeping ---------------------------------------------

    /// Mark the worker live (called just before spawning its thread).
    pub fn mark_alive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Drop-guard hook: the worker thread is gone (return or panic).
    /// Epoch-qualified: an *abandoned* (stale-epoch) thread finally
    /// exiting must not clear the flag out from under the replacement
    /// worker that now owns it.
    pub fn mark_exited(&self, my_epoch: u64) {
        if self.epoch.load(Ordering::Acquire) == my_epoch {
            self.alive.store(false, Ordering::Release);
            self.warming.store(false, Ordering::Release);
        }
    }

    /// Supervisor-side: force the flag down when abandoning a wedged
    /// worker (its own exit, being stale-epoch by then, will not).
    pub fn clear_alive(&self) {
        self.alive.store(false, Ordering::Release);
        self.warming.store(false, Ordering::Release);
        self.work_cv.notify_all();
    }

    /// Is the worker thread still running?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Mark the worker as (not) warming up. Set by the spawner just
    /// before the thread starts; cleared by the worker itself once its
    /// model is built and it begins draining the mailbox.
    pub fn set_warming(&self, w: bool) {
        self.warming.store(w, Ordering::Release);
    }

    /// Is the worker still building its model (alive but not serving)?
    pub fn is_warming(&self) -> bool {
        self.warming.load(Ordering::Acquire)
    }

    /// Heartbeat progress counter.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Stamp of the most recent heartbeat.
    pub fn last_beat_ns(&self) -> u64 {
        self.last_beat_ns.load(Ordering::Relaxed)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Set the lifecycle state.
    pub fn set_state(&self, s: ShardState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Completed restarts.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Count one restart.
    pub fn count_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests stolen from this shard for replay.
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Count `n` replayed requests.
    pub fn count_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Ordering::Relaxed);
    }

    /// Earliest instant the next respawn may run.
    pub fn next_restart_at_ns(&self) -> u64 {
        self.next_restart_at_ns.load(Ordering::Relaxed)
    }

    /// Schedule the next respawn.
    pub fn set_next_restart_at_ns(&self, at: u64) {
        self.next_restart_at_ns.store(at, Ordering::Relaxed);
    }

    /// The worker thread handle (the spawner stores it, shutdown joins
    /// it, abandonment detaches it).
    pub fn handle(&self) -> MutexGuard<'_, Option<JoinHandle<()>>> {
        self.handle.lock().unwrap()
    }
}

/// Exponential restart backoff: `base << restarts`, saturating, capped.
pub fn backoff_ns(base_ns: u64, restarts: u64, cap_ns: u64) -> u64 {
    let shift = restarts.min(20) as u32;
    base_ns.saturating_mul(1u64 << shift).min(cap_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Slot = ShardSlot<Vec<u32>>;

    fn recv_now(s: &Slot, epoch: u64) -> Recv<Vec<u32>> {
        s.recv(epoch, Duration::from_millis(1))
    }

    #[test]
    fn mailbox_send_recv_fifo_and_depth() {
        let s: Slot = Slot::new();
        s.mark_alive();
        s.try_send(vec![1], 4).unwrap();
        s.try_send(vec![2], 4).unwrap();
        assert_eq!(s.depth(), 2);
        let e = s.current_epoch();
        match recv_now(&s, e) {
            Recv::Batch(b) if b == [1] => {}
            other => panic!("{other:?}"),
        }
        match recv_now(&s, e) {
            Recv::Batch(b) if b == [2] => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(recv_now(&s, e), Recv::Idle));
    }

    #[test]
    fn bounded_send_rejects_when_closed_or_dead() {
        let s: Slot = Slot::new();
        // Worker never spawned → not alive → send hands the batch back.
        assert_eq!(s.try_send(vec![7], 4), Err(vec![7]));
        s.mark_alive();
        s.try_send(vec![8], 4).unwrap();
        s.close();
        assert_eq!(s.try_send(vec![9], 4), Err(vec![9]));
        // The queued batch still drains before Stop.
        let e = s.current_epoch();
        assert!(matches!(recv_now(&s, e), Recv::Batch(b) if b == [8]));
        assert!(matches!(recv_now(&s, e), Recv::Stop));
    }

    #[test]
    fn try_send_hands_the_batch_back_at_cap() {
        let s: Slot = Slot::new();
        s.mark_alive();
        s.try_send(vec![1], 2).unwrap();
        s.try_send(vec![2], 2).unwrap();
        assert_eq!(s.try_send(vec![3], 2), Err(vec![3]), "mailbox at cap");
        assert_eq!(s.depth(), 2, "the refused batch was not queued");
        // Draining one frees exactly one place.
        assert!(matches!(recv_now(&s, s.current_epoch()), Recv::Batch(b) if b == [1]));
        s.try_send(vec![3], 2).unwrap();
        assert_eq!(s.try_send(vec![4], 2), Err(vec![4]));
    }

    #[test]
    fn stale_epoch_stops_the_worker_without_touching_work() {
        let s: Slot = Slot::new();
        s.mark_alive();
        s.try_send(vec![5], 4).unwrap();
        let old = s.current_epoch();
        s.bump_epoch();
        assert!(matches!(recv_now(&s, old), Recv::Stop));
        assert_eq!(s.depth(), 1, "abandoned worker left the mailbox alone");
        // The replacement (current epoch) gets the batch.
        assert!(matches!(recv_now(&s, s.current_epoch()), Recv::Batch(b) if b == [5]));
    }

    #[test]
    fn active_slot_is_exactly_once() {
        let s: Slot = Slot::new();
        let e = s.current_epoch();
        s.set_active(vec![1, 2, 3]);
        assert!(s.has_active());
        // Worker reclaims it: supervisor finds nothing to steal.
        let got = s.take_active_if_current(e).unwrap();
        assert_eq!(got, [1, 2, 3]);
        let (stolen, queued) = s.steal_work();
        assert!(stolen.is_none() && queued.is_empty());

        // Supervisor steals first: the (stale) worker must not reply.
        s.set_active(vec![4]);
        s.bump_epoch();
        let (stolen, _) = s.steal_work();
        assert_eq!(stolen.unwrap(), [4]);
        assert!(s.take_active_if_current(e).is_none());
    }

    #[test]
    fn steal_takes_active_and_queued_in_order() {
        let s: Slot = Slot::new();
        s.mark_alive();
        s.set_active(vec![0]);
        s.try_send(vec![1], 8).unwrap();
        s.try_send(vec![2], 8).unwrap();
        let (active, queued) = s.steal_work();
        assert_eq!(active.unwrap(), [0]);
        assert_eq!(queued, [vec![1], vec![2]]);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn a_popped_batch_reads_busy_before_set_active_until_done() {
        let s: Slot = Slot::new();
        s.mark_alive();
        assert_eq!(s.load(), 0, "a fresh slot is idle");
        s.try_send(vec![1], 4).unwrap();
        assert_eq!(s.load(), 1);
        let e = s.current_epoch();
        assert!(matches!(recv_now(&s, e), Recv::Batch(b) if b == [1]));
        assert_eq!(s.depth(), 0, "the mailbox is empty");
        assert_eq!(s.load(), 1, "popped, not yet parked by set_active: busy");
        s.set_active(vec![1]);
        assert_eq!(s.take_active_if_current(e).unwrap(), [1]);
        assert_eq!(s.load(), 1, "answering still counts as busy");
        assert!(s.done(e), "done with an empty mailbox: idle");
        assert_eq!(s.load(), 0);

        // Done with more queued: the worker is free, the shard is not idle.
        s.try_send(vec![2], 4).unwrap();
        s.try_send(vec![3], 4).unwrap();
        assert!(matches!(recv_now(&s, e), Recv::Batch(_)));
        assert!(!s.done(e), "a batch is still queued");
        assert_eq!(s.load(), 1);
    }

    #[test]
    fn steal_clears_the_hold_and_a_stale_done_changes_nothing() {
        let s: Slot = Slot::new();
        s.mark_alive();
        s.try_send(vec![1], 4).unwrap();
        let old = s.current_epoch();
        assert!(matches!(recv_now(&s, old), Recv::Batch(_)));
        s.bump_epoch();
        let (active, queued) = s.steal_work();
        assert!(active.is_none() && queued.is_empty());
        assert_eq!(s.load(), 0, "the abandoned worker's hold was stolen");
        // The replacement pops a batch; the old worker finishing late
        // must not mark the replacement idle.
        s.try_send(vec![2], 4).unwrap();
        assert!(matches!(recv_now(&s, s.current_epoch()), Recv::Batch(_)));
        assert!(!s.done(old));
        assert_eq!(s.load(), 1);
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let base = 10_000_000; // 10ms
        let cap = 1_000_000_000; // 1s
        assert_eq!(backoff_ns(base, 0, cap), 10_000_000);
        assert_eq!(backoff_ns(base, 1, cap), 20_000_000);
        assert_eq!(backoff_ns(base, 2, cap), 40_000_000);
        assert_eq!(backoff_ns(base, 6, cap), 640_000_000);
        assert_eq!(backoff_ns(base, 7, cap), cap, "capped");
        assert_eq!(backoff_ns(base, 63, cap), cap, "shift saturates, no overflow");
    }

    #[test]
    fn state_round_trips_and_names() {
        let s: Slot = Slot::new();
        assert_eq!(s.state(), ShardState::Healthy);
        for (st, name) in [
            (ShardState::Wedged, "wedged"),
            (ShardState::Restarting, "restarting"),
            (ShardState::Dead, "dead"),
            (ShardState::Healthy, "healthy"),
        ] {
            s.set_state(st);
            assert_eq!(s.state(), st);
            assert_eq!(st.as_str(), name);
        }
    }
}
