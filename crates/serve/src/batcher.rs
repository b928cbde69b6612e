//! The coalescing/deadline/backpressure state machine — the heart of the
//! server, kept **pure** so it is exhaustively testable.
//!
//! [`BatcherCore`] never reads a clock, never touches a socket, never
//! blocks: every transition takes an explicit `now_ns` (and a release
//! takes whether a shard is idle, which the caller observes). The threaded
//! server wraps it in a mutex and feeds it real time; the property tests
//! (`tests/batcher_prop.rs`) feed it a virtual clock and seeded Poisson
//! arrivals and check the invariants the server's guarantees rest on:
//!
//! * **admission** — [`BatcherCore::offer`] accepts iff the queue is
//!   below its bound; a rejected payload is handed back (the server
//!   turns it into a 503, never silently dropping it);
//! * **dispatch** — work-conserving: [`BatcherCore::take_batch`] is
//!   told whether a shard is *idle* (mailbox empty, worker holding no
//!   batch) and then releases whatever is queued, up to `max_batch`, at
//!   once. While every shard is busy it coalesces: a batch is *ready*
//!   only when `max_batch` requests are waiting (size bound), the oldest
//!   has waited `max_delay_ns` (coalescing deadline), or the most urgent
//!   queued request is within `expiry_margin_ns` of its *request*
//!   deadline (stop coalescing rather than blow it);
//! * **deadlines** — every request carries an absolute `deadline_ns`;
//!   [`BatcherCore::take_batch`] sheds expired requests instead of ever
//!   including one in a batch (the server answers 504 — a request is
//!   **never dispatched after its deadline**, so a doomed request costs
//!   no shard work);
//! * **exactly-once** — every accepted id leaves in exactly one batch
//!   (or exactly one shed list). [`BatcherCore::requeue_front`] puts a
//!   supervisor-stolen in-flight batch back at the head of the queue
//!   with ids and stamps intact, so a replay after a shard death keeps
//!   FIFO order and the exactly-once accounting.

use std::collections::VecDeque;

/// Sentinel deadline for "no deadline" (never expires, never sheds).
pub const NO_DEADLINE: u64 = u64::MAX;

/// Coalescing bounds.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Dispatch as soon as this many requests are queued (must be ≥ 1 and
    /// ≤ the model's planned batch capacity).
    pub max_batch: usize,
    /// While every shard is busy, dispatch when the oldest queued request
    /// is this old, even if the batch is not full — the latency the
    /// server is willing to spend waiting for co-riders. A request that
    /// finds a shard idle does not wait for it.
    pub max_delay_ns: u64,
    /// Admission bound: offers beyond this queue depth are rejected.
    pub queue_cap: usize,
    /// Stop coalescing when any queued request is within this margin of
    /// its request deadline — dispatching a partial batch beats shedding
    /// a request that was dispatchable when it arrived.
    pub expiry_margin_ns: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 4,
            max_delay_ns: 2_000_000,
            queue_cap: 64,
            expiry_margin_ns: 500_000,
        }
    }
}

/// One queued request: its admission id, arrival stamp, absolute
/// deadline and payload.
#[derive(Debug)]
pub struct Pending<T> {
    /// Dense id assigned at admission (0, 1, 2, …).
    pub id: u64,
    /// The `now_ns` passed to the accepting [`BatcherCore::offer`].
    pub enqueued_ns: u64,
    /// Absolute request deadline ([`NO_DEADLINE`] = none). At or past
    /// this instant the request is shed (504), never dispatched.
    pub deadline_ns: u64,
    /// The caller's request data.
    pub payload: T,
}

impl<T> Pending<T> {
    /// Has the deadline passed at `now_ns`? (Expiry is inclusive: a
    /// request *at* its deadline is shed.)
    pub(crate) fn is_expired(&self, now_ns: u64) -> bool {
        self.deadline_ns != NO_DEADLINE && now_ns >= self.deadline_ns
    }
}

/// Split every request that has expired at `now_ns` off `batch`, keeping
/// the live ones in order — the one deadline split: the queue's sheds,
/// the dispatcher's in-hand batch and the shard's last-line check all
/// run it. Allocation-free when nothing has expired.
pub(crate) fn split_expired<T>(batch: &mut Vec<Pending<T>>, now_ns: u64) -> Vec<Pending<T>> {
    if !batch.iter().any(|p| p.is_expired(now_ns)) {
        return Vec::new();
    }
    let (expired, live) = std::mem::take(batch)
        .into_iter()
        .partition(|p| p.is_expired(now_ns));
    *batch = live;
    expired
}

/// Counters the batcher maintains as it runs (snapshot via
/// [`BatcherCore::stats`]; `/stats` reports them).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherStats {
    /// Offers admitted.
    pub accepted: u64,
    /// Offers rejected by the queue bound.
    pub rejected: u64,
    /// Requests released in batches.
    pub dispatched: u64,
    /// Batches released.
    pub batches: u64,
    /// Sum of batch occupancies (`occupancy_sum / batches` = mean).
    pub occupancy_sum: u64,
    /// High-water queue depth.
    pub max_depth: usize,
    /// Requests shed because their deadline expired before dispatch.
    pub shed: u64,
    /// Requests re-enqueued by the supervisor after a shard death/wedge.
    pub replayed: u64,
}

impl BatcherStats {
    /// Mean requests per released batch (0 before the first batch).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.batches as f64
        }
    }
}

/// What one [`BatcherCore::take_batch`] call released: a (possibly
/// empty) batch to dispatch plus the requests it shed as expired. The
/// caller owes every shed request a 504.
#[derive(Debug)]
pub struct Taken<T> {
    /// The dispatchable batch (empty when nothing was ready).
    pub batch: Vec<Pending<T>>,
    /// Requests whose deadline expired while queued — shed, never
    /// dispatched.
    pub expired: Vec<Pending<T>>,
}

impl<T> Default for Taken<T> {
    fn default() -> Self {
        Self { batch: Vec::new(), expired: Vec::new() }
    }
}

/// The pure batching state machine. `T` is the request payload.
#[derive(Debug)]
pub struct BatcherCore<T> {
    cfg: BatchConfig,
    queue: VecDeque<Pending<T>>,
    next_id: u64,
    stats: BatcherStats,
}

impl<T> BatcherCore<T> {
    /// A fresh batcher. Panics on degenerate bounds (zero batch size or
    /// queue capacity) — those are configuration bugs, not load states.
    pub fn new(cfg: BatchConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be >= 1");
        Self {
            cfg,
            queue: VecDeque::new(),
            next_id: 0,
            stats: BatcherStats::default(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Override the coalescing bounds live — the brownout controller
    /// steps `max_batch` / `max_delay_ns` down under pressure and back up
    /// when it clears. The admission bound (`queue_cap`) is not touched:
    /// shrinking it mid-flight would strand already-admitted requests.
    pub fn set_limits(&mut self, max_batch: usize, max_delay_ns: u64) {
        self.cfg.max_batch = max_batch.max(1);
        self.cfg.max_delay_ns = max_delay_ns;
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatcherStats {
        self.stats
    }

    /// Offer a request at time `now_ns` with an absolute request
    /// deadline ([`NO_DEADLINE`] = none). Admitted requests get a dense
    /// id; a rejected payload is returned to the caller (queue at
    /// capacity — the server answers 503).
    pub fn offer(&mut self, payload: T, now_ns: u64, deadline_ns: u64) -> Result<u64, T> {
        if self.queue.len() >= self.cfg.queue_cap {
            self.stats.rejected += 1;
            return Err(payload);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Pending { id, enqueued_ns: now_ns, deadline_ns, payload });
        self.stats.accepted += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.queue.len());
        Ok(id)
    }

    /// Put supervisor-stolen in-flight requests back at the **head** of
    /// the queue, ids and stamps intact (they are the oldest work in the
    /// system, so FIFO order is preserved). Replay may transiently push
    /// the depth past `queue_cap` — an accepted request is never dropped
    /// to make room for admission control.
    pub fn requeue_front(&mut self, batch: Vec<Pending<T>>) {
        self.stats.replayed += batch.len() as u64;
        for p in batch.into_iter().rev() {
            self.queue.push_front(p);
        }
        self.stats.max_depth = self.stats.max_depth.max(self.queue.len());
    }

    /// When the dispatcher next has cause to act (`None` when idle): the
    /// earlier of the oldest request's coalescing deadline and the most
    /// urgent request's expiry margin — what the dispatcher sleeps until.
    pub fn next_deadline(&self) -> Option<u64> {
        let coalesce = self
            .queue
            .front()
            .map(|p| p.enqueued_ns.saturating_add(self.cfg.max_delay_ns));
        let expiry = self
            .queue
            .iter()
            .map(|p| p.deadline_ns.saturating_sub(self.cfg.expiry_margin_ns))
            .min();
        match (coalesce, expiry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Is a batch releasable at `now_ns`, given whether a shard is `idle`?
    /// With an idle shard, any queued request is. While every shard is
    /// busy, only when `max_batch` requests are queued, the oldest has
    /// aged past `max_delay_ns`, or any queued request is within
    /// `expiry_margin_ns` of its deadline. An empty queue never is.
    pub fn ready(&self, now_ns: u64, idle: bool) -> bool {
        (idle && !self.queue.is_empty())
            || self.queue.len() >= self.cfg.max_batch
            || self.next_deadline().is_some_and(|d| now_ns >= d)
    }

    /// Shed every queued request whose deadline has passed (the caller
    /// answers 504). Shedding can un-ready the batcher — expired
    /// requests no longer count toward the size bound.
    pub fn shed_expired(&mut self, now_ns: u64) -> Vec<Pending<T>> {
        if !self.queue.iter().any(|p| p.is_expired(now_ns)) {
            return Vec::new();
        }
        let mut queue = Vec::from(std::mem::take(&mut self.queue));
        let expired = split_expired(&mut queue, now_ns);
        self.queue = queue.into();
        self.stats.shed += expired.len() as u64;
        expired
    }

    /// Shed expired requests, then release the oldest up-to-`max_batch`
    /// live requests if a batch is (still) [`ready`](Self::ready) at
    /// `now_ns` with a shard `idle` or not. The batch never contains a
    /// request past its deadline.
    pub fn take_batch(&mut self, now_ns: u64, idle: bool) -> Taken<T> {
        let expired = self.shed_expired(now_ns);
        let batch = if self.ready(now_ns, idle) { self.force_take() } else { Vec::new() };
        Taken { batch, expired }
    }

    /// Release the oldest up-to-`max_batch` requests unconditionally —
    /// the shutdown flush, so every accepted request is still answered
    /// (an expired request is answered 504 downstream, not dropped).
    pub fn force_take(&mut self) -> Vec<Pending<T>> {
        let n = self.queue.len().min(self.cfg.max_batch);
        if n == 0 {
            return Vec::new();
        }
        let batch: Vec<Pending<T>> = self.queue.drain(..n).collect();
        self.stats.batches += 1;
        self.stats.dispatched += batch.len() as u64;
        self.stats.occupancy_sum += batch.len() as u64;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, max_delay_ns: u64, queue_cap: usize) -> BatchConfig {
        BatchConfig { max_batch, max_delay_ns, queue_cap, expiry_margin_ns: 0 }
    }

    #[test]
    fn size_bound_triggers_dispatch() {
        let mut b = BatcherCore::new(cfg(3, 1_000_000, 10));
        assert!(b.offer("a", 0, NO_DEADLINE).is_ok());
        assert!(b.offer("b", 1, NO_DEADLINE).is_ok());
        assert!(!b.ready(2, false), "two of three queued");
        assert!(b.take_batch(2, false).batch.is_empty());
        assert!(b.offer("c", 2, NO_DEADLINE).is_ok());
        assert!(b.ready(2, false), "size bound reached");
        let t = b.take_batch(2, false);
        assert_eq!(t.batch.len(), 3);
        assert!(t.expired.is_empty());
        assert_eq!(t.batch.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn deadline_triggers_partial_dispatch() {
        let mut b = BatcherCore::new(cfg(8, 100, 10));
        b.offer(1u32, 50, NO_DEADLINE).unwrap();
        b.offer(2u32, 60, NO_DEADLINE).unwrap();
        assert_eq!(b.next_deadline(), Some(150));
        assert!(!b.ready(149, false));
        assert!(b.ready(150, false), "oldest aged past max_delay");
        let t = b.take_batch(150, false);
        assert_eq!(t.batch.len(), 2, "partial batch at deadline");
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn queue_bound_rejects_and_returns_payload() {
        let mut b = BatcherCore::new(cfg(4, 100, 2));
        b.offer("x", 0, NO_DEADLINE).unwrap();
        b.offer("y", 0, NO_DEADLINE).unwrap();
        let back = b.offer("z", 0, NO_DEADLINE).expect_err("queue full");
        assert_eq!(back, "z");
        let s = b.stats();
        assert_eq!((s.accepted, s.rejected), (2, 1));
        // Draining frees capacity again.
        assert_eq!(b.force_take().len(), 2);
        assert!(b.offer("z", 1, NO_DEADLINE).is_ok());
    }

    #[test]
    fn oversize_backlog_releases_in_max_batch_chunks() {
        let mut b = BatcherCore::new(cfg(2, 1_000, 10));
        for i in 0..5 {
            b.offer(i, 0, NO_DEADLINE).unwrap();
        }
        assert_eq!(b.take_batch(0, false).batch.len(), 2, "size-ready despite young age");
        assert_eq!(b.take_batch(0, false).batch.len(), 2);
        assert!(b.take_batch(0, false).batch.is_empty(), "one left, not aged");
        assert_eq!(b.take_batch(1_000, false).batch.len(), 1, "deadline flushes the tail");
        let s = b.stats();
        assert_eq!((s.dispatched, s.batches), (5, 3));
        assert_eq!(s.max_depth, 5);
    }

    #[test]
    fn expired_requests_are_shed_not_dispatched() {
        let mut b = BatcherCore::new(cfg(4, 1_000_000, 10));
        b.offer("lives", 0, 500).unwrap();
        b.offer("dies", 10, 100).unwrap();
        // At t=100 the second request is exactly at its deadline: shed.
        let t = b.take_batch(100, false);
        assert_eq!(t.expired.len(), 1);
        assert_eq!(t.expired[0].payload, "dies");
        // The survivor is within its expiry margin at t=500 → dispatched,
        // never after its deadline.
        assert!(t.batch.is_empty(), "one live young request is not ready");
        let t = b.take_batch(499, false);
        assert!(t.expired.is_empty());
        assert!(t.batch.is_empty(), "t=499 < deadline-with-zero-margin");
        // (t=500 is the deadline itself: shed, not dispatched.)
        let t = b.take_batch(500, false);
        assert_eq!(t.expired.len(), 1);
        assert!(t.batch.is_empty());
        let s = b.stats();
        assert_eq!(s.shed, 2);
        assert_eq!(s.dispatched, 0);
    }

    #[test]
    fn expiry_margin_stops_coalescing_early() {
        let mut b = BatcherCore::new(BatchConfig {
            max_batch: 8,
            max_delay_ns: 1_000_000,
            queue_cap: 10,
            expiry_margin_ns: 50,
        });
        b.offer("urgent", 0, 200).unwrap();
        // Far from the coalescing deadline (1ms) but within margin of the
        // request deadline at t=150.
        assert!(!b.ready(149, false));
        assert!(b.ready(150, false), "deadline - margin reached");
        let t = b.take_batch(150, false);
        assert_eq!(t.batch.len(), 1, "dispatched before expiry, not shed");
        assert!(t.expired.is_empty());
    }

    #[test]
    fn shedding_can_unready_the_size_bound() {
        let mut b = BatcherCore::new(cfg(2, 1_000_000, 10));
        b.offer("a", 0, 10).unwrap();
        b.offer("b", 0, NO_DEADLINE).unwrap();
        assert!(b.ready(50, false), "two queued hits the size bound");
        let t = b.take_batch(50, false);
        assert_eq!(t.expired.len(), 1, "a expired");
        assert!(t.batch.is_empty(), "b alone is below the size bound and young");
        assert_eq!(b.depth(), 1);
    }

    #[test]
    fn requeue_front_preserves_ids_and_order() {
        let mut b = BatcherCore::new(cfg(3, 1_000, 10));
        for name in ["a", "b", "c", "d"] {
            b.offer(name, 0, NO_DEADLINE).unwrap();
        }
        let t = b.take_batch(0, false);
        assert_eq!(t.batch.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 2]);
        // The shard died holding [a,b,c]; replay puts them back ahead of d.
        b.requeue_front(t.batch);
        assert_eq!(b.depth(), 4);
        let t = b.take_batch(0, false);
        assert_eq!(t.batch.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(t.batch.iter().map(|p| p.payload).collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(b.stats().replayed, 3);
        // New offers keep the dense id stream (no id reuse after replay).
        assert_eq!(b.offer("e", 1, NO_DEADLINE).unwrap(), 4);
    }

    #[test]
    fn idle_shard_releases_a_lone_request_at_once() {
        let mut b = BatcherCore::new(cfg(4, 1_000_000, 10));
        b.offer("a", 0, NO_DEADLINE).unwrap();
        assert!(!b.ready(0, false), "busy shards: one young request coalesces");
        assert!(b.ready(0, true), "an idle shard takes it now");
        let t = b.take_batch(0, true);
        assert_eq!(t.batch.len(), 1);
        assert!(t.expired.is_empty());
        assert_eq!(b.depth(), 0);
    }

    #[test]
    fn idle_shard_takes_at_most_max_batch() {
        let mut b = BatcherCore::new(cfg(2, 1_000_000, 10));
        for i in 0..3 {
            b.offer(i, 0, NO_DEADLINE).unwrap();
        }
        assert_eq!(b.take_batch(0, true).batch.len(), 2, "size bound still caps");
        assert_eq!(b.take_batch(0, true).batch.len(), 1, "the rest goes at once");
        let s = b.stats();
        assert_eq!((s.dispatched, s.batches), (3, 2));
    }

    #[test]
    fn empty_queue_is_never_ready() {
        let mut b: BatcherCore<u32> = BatcherCore::new(cfg(1, 0, 10));
        assert!(!b.ready(0, true));
        assert!(!b.ready(u64::MAX, true));
        let t = b.take_batch(0, true);
        assert!(t.batch.is_empty() && t.expired.is_empty());
        assert_eq!(b.stats().batches, 0, "no empty batch is counted");
    }

    #[test]
    fn idle_shard_sheds_expired_requests_instead_of_dispatching_them() {
        let mut b = BatcherCore::new(cfg(4, 1_000_000, 10));
        b.offer("dies", 0, 100).unwrap();
        b.offer("lives", 0, NO_DEADLINE).unwrap();
        let t = b.take_batch(100, true);
        assert_eq!(t.expired.len(), 1);
        assert_eq!(t.expired[0].payload, "dies");
        assert_eq!(t.batch.iter().map(|p| p.payload).collect::<Vec<_>>(), ["lives"]);
        // Only expired requests queued: shed, and no batch at all.
        b.offer("late", 200, 300).unwrap();
        let t = b.take_batch(300, true);
        assert_eq!(t.expired.len(), 1);
        assert!(t.batch.is_empty());
        let s = b.stats();
        assert_eq!((s.shed, s.dispatched, s.batches), (2, 1, 1));
    }

    #[test]
    fn set_limits_applies_live() {
        let mut b = BatcherCore::new(cfg(4, 1_000_000, 10));
        b.offer("a", 0, NO_DEADLINE).unwrap();
        b.offer("b", 0, NO_DEADLINE).unwrap();
        assert!(!b.ready(10, false), "below size bound, young");
        b.set_limits(2, 1_000_000);
        assert!(b.ready(10, false), "brownout-shrunk size bound reached");
        b.set_limits(4, 5);
        assert_eq!(b.take_batch(10, false).batch.len(), 2, "shrunk coalescing delay");
    }
}
