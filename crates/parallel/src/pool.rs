//! Fork-join execution with a static schedule.
//!
//! [`StaticPool`] keeps `ω-1` parked worker threads alive across jobs so that
//! steady-state inference pays only a wake/park per layer, matching the
//! paper's "the job … is executed using a single fork-join method".
//!
//! The core entry point is [`StaticPool::run_phases`]: a *multi-phase* job
//! executes stages ①→②→③ of a layer inside **one** fork-join — workers stay
//! resident across stages and synchronise at an in-pool sense-reversing
//! [`Barrier`] between phases instead of parking on the condvar and being
//! re-woken per stage. [`StaticPool::run`] is a thin single-phase wrapper
//! over the same machinery.

use core::any::Any;
use core::ops::Range;
use core::sync::atomic::{AtomicBool, Ordering};

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::barrier::Barrier;
use crate::partition::partition_into;
use crate::steal::{set_chunk_stolen, StealQueues};

/// Key for the `pool/phase` fault site: which `(worker, phase)` visit of the
/// phase loop an armed fault should hit (see
/// [`lowino_testkit::faults::POOL_PHASE`]).
pub fn phase_fault_key(worker: usize, phase: usize) -> u64 {
    ((worker as u64) << 32) | phase as u64
}

/// Probe the `pool/phase` injection site at the top of every phase body.
/// Disarmed cost: one relaxed atomic load. A triggered fault panics exactly
/// like a buggy phase body would — inside the capture machinery, so it
/// exercises the real panic path end-to-end.
#[inline]
fn phase_fault_probe(worker: usize, phase: usize) {
    if lowino_testkit::faults::POOL_PHASE.fire_keyed(phase_fault_key(worker, phase)) {
        panic!("injected fault: pool/phase (worker {worker}, phase {phase})");
    }
}

/// Maximum number of phases a single fork-join job may contain. Generous:
/// the deepest executor pipeline today (quantize → transform → GEMM →
/// output) has four.
pub const MAX_PHASES: usize = 8;

/// Wall-clock duration of each phase of a [`StaticPool::run_phases`] call,
/// recorded by the calling thread (worker 0) at the inter-phase barriers.
///
/// A phase's time spans from the end of the previous phase's barrier to the
/// end of its own, so it includes any barrier wait — i.e. it charges each
/// phase with the time the slowest worker spent in it, which is what a
/// fork-join schedule actually pays.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    len: usize,
    times: [Duration; MAX_PHASES],
}

impl PhaseTimes {
    fn new(len: usize) -> Self {
        Self {
            len,
            times: [Duration::ZERO; MAX_PHASES],
        }
    }

    /// Number of phases recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no phases were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The recorded per-phase durations.
    pub fn as_slice(&self) -> &[Duration] {
        &self.times[..self.len]
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        self.as_slice().iter().sum()
    }
}

impl core::ops::Index<usize> for PhaseTimes {
    type Output = Duration;

    fn index(&self, phase: usize) -> &Duration {
        &self.times[..self.len][phase]
    }
}

/// A panic captured from a fork-join job body, demoted to a plain message
/// so callers can surface it as a typed error instead of unwinding.
///
/// Returned by [`StaticPool::run_phases_catching`]; the pool itself is left
/// fully usable (the same guarantee [`StaticPool::run_phases`] gives when it
/// rethrows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload (`&str` / `String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        Self { message }
    }
}

impl core::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "worker panic: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// First-panic-wins capture slot shared by all participants of one job.
///
/// A panicking phase body must not wedge the pool: the panic is parked here,
/// every participant keeps hitting the inter-phase barriers (skipping
/// further phase bodies once `tripped`), and the *caller* rethrows after the
/// join — so the pool's bookkeeping completes normally and the next job runs
/// on a healthy pool. This mirrors the poison-tolerant lock policy below.
#[derive(Default)]
struct PanicSlot {
    tripped: AtomicBool,
    slot: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PanicSlot {
    fn store(&self, payload: Box<dyn Any + Send>) {
        self.tripped.store(true, Ordering::Release);
        let mut guard = match self.slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.get_or_insert(payload);
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    fn take(&self) -> Option<Box<dyn Any + Send>> {
        let mut guard = match self.slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.take()
    }
}

/// One participant's walk through every phase of a job.
///
/// `sync` is `None` on the inline (single-participant) path — no barrier, no
/// panic capture, panics propagate straight to the caller. With `Some`, the
/// body of each phase is wrapped in `catch_unwind` and every participant
/// waits at the barrier after every phase, whether or not it had a range (a
/// phase may have fewer tasks than workers).
///
/// The fan-out path runs each phase off its [`StealQueues`] (bounded
/// intra-phase work-stealing): instead of executing its static range in one
/// call, each participant pops guided chunks off its own deque and then
/// steals from stragglers, so the phase body is invoked once per *chunk*.
/// Exactly-once execution is the [`StealQueues`] invariant; the stolen-ness
/// of the running chunk is published through
/// [`crate::steal::chunk_was_stolen`] for leaf-level trace attribution.
///
/// `after_phase(p)` runs after the phase-`p` barrier — all participants are
/// guaranteed done with phase `p` at that point, which is where the caller
/// hangs its timestamps.
fn phase_loop<F, A>(
    worker: usize,
    plan: &[Vec<Range<usize>>],
    sync: Option<(&Barrier, &PanicSlot, &[StealQueues])>,
    f: &F,
    mut after_phase: A,
) where
    F: Fn(usize, usize, Range<usize>) + Sync,
    A: FnMut(usize),
{
    match sync {
        None => {
            for (phase, ranges) in plan.iter().enumerate() {
                let _span = lowino_trace::span_arg("pool/phase", phase as u64);
                phase_fault_probe(worker, phase);
                if let Some(r) = ranges.get(worker) {
                    f(worker, phase, r.clone());
                }
                after_phase(phase);
            }
        }
        Some((barrier, panics, queues)) => {
            let tracing = lowino_trace::enabled();
            let mut token = barrier.sense_token();
            for (phase, q) in queues.iter().enumerate() {
                // The span covers the phase body *and* the barrier wait, so
                // each worker's phase span ends when the slowest worker
                // finishes — the same accounting as `PhaseTimes`, but per
                // worker instead of caller-only.
                let span = lowino_trace::span_arg("pool/phase", phase as u64);
                if !panics.tripped() {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                        // Probed even when this worker ends up with no
                        // chunks, mirroring the inline path.
                        phase_fault_probe(worker, phase);
                        while !panics.tripped() {
                            let Some(chunk) = q.pop(worker) else { break };
                            // Probed per chunk (one-shot, so at most one
                            // fires): an armed `pool/phase` fault can land
                            // mid-steal, while other workers are actively
                            // draining the same phase.
                            phase_fault_probe(worker, phase);
                            set_chunk_stolen(chunk.stolen);
                            f(worker, phase, chunk.range);
                        }
                    })) {
                        panics.store(payload);
                    }
                    set_chunk_stolen(false);
                }
                // Time spent waiting for stragglers at the barrier is the
                // scheduler's residual imbalance; only measured when tracing.
                let idle_from = if tracing { Some(Instant::now()) } else { None };
                barrier.wait(&mut token);
                if let Some(t0) = idle_from {
                    lowino_trace::counter("pool/idle_ns", t0.elapsed().as_nanos() as u64);
                }
                drop(span);
                after_phase(phase);
            }
        }
    }
}

/// Type-erased job pointer handed to workers.
///
/// SAFETY invariant: the pointee outlives every execution — guaranteed
/// because [`StaticPool::run_phases`] does not return until all workers have
/// finished the job (join barrier), and the pointee lives in its frame.
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));
// SAFETY: see invariant above; the pointer is only dereferenced while the
// owning `run_phases` frame is blocked waiting for completion.
unsafe impl Send for JobPtr {}

struct State {
    epoch: u64,
    job: Option<JobPtr>,
    remaining: usize,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Lock ignoring poisoning: a panicking job must not wedge the pool
/// (`parking_lot`, which this replaced, had no poisoning either — the
/// `State` fields stay consistent because they are only mutated after the
/// job closure returns).
fn lock_state(inner: &Inner) -> std::sync::MutexGuard<'_, State> {
    match inner.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn wait_on<'a>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, State>,
) -> std::sync::MutexGuard<'a, State> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A persistent fork-join pool with `ω` execution slots (`ω-1` parked worker
/// threads plus the calling thread).
///
/// Each job pre-partitions the task space statically and executes it as a
/// single fork-join; worker `i` always *starts* on partition `i`, so
/// memory-access patterns are stable across invocations (paper §4.4). Within
/// a phase, workers that drain their partition early re-balance the tail via
/// bounded [`StealQueues`] stealing — half the richest straggler's
/// remainder, never a victim's last task — so skewed phases no longer
/// serialise on the slowest static partition. A multi-phase job
/// ([`run_phases`](StaticPool::run_phases)) wakes and parks the workers
/// **once** for the whole layer; phases hand off at an in-pool [`Barrier`]
/// instead.
pub struct StaticPool {
    inner: Arc<Inner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Reusable per-phase partition buffers: zero steady-state allocation.
    plan: [Vec<Range<usize>>; MAX_PHASES],
    /// Reusable per-phase stealing deques, re-seeded from `plan` before each
    /// fan-out job: zero steady-state allocation.
    queues: [StealQueues; MAX_PHASES],
    /// Fork-joins issued so far (inline fast-path jobs included).
    jobs: u64,
}

impl StaticPool {
    /// Create a pool with `threads` total execution slots. `0` is clamped
    /// to 1 (the caller is always a participant), so a misconfigured thread
    /// count yields a sequential pool rather than an abort.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // Pool construction is on every entry path into the executor stack,
        // so it doubles as the `LOWINO_TRACE` / `LOWINO_FAULT` activation
        // point.
        lowino_trace::init_from_env();
        lowino_testkit::faults::init_from_env();
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for worker in 1..threads {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lowino-worker-{worker}"))
                    .spawn(move || Self::worker_loop(&inner, worker))
                    .expect("spawn worker"),
            );
        }
        Self {
            inner,
            handles,
            threads,
            plan: core::array::from_fn(|_| Vec::new()),
            queues: core::array::from_fn(|_| StealQueues::new(threads)),
            jobs: 0,
        }
    }

    /// Number of execution slots.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total fork-joins issued by this pool (each [`run`](StaticPool::run) or
    /// [`run_phases`](StaticPool::run_phases) call counts once, however many
    /// phases it contains and whether or not it fanned out to workers).
    ///
    /// Tests use the delta across an `execute` call to assert a layer costs
    /// exactly one fork-join.
    pub fn fork_joins(&self) -> u64 {
        self.jobs
    }

    fn worker_loop(inner: &Inner, worker: usize) {
        let mut last_epoch = 0u64;
        loop {
            let job = {
                let mut st = lock_state(inner);
                while !st.shutdown && st.epoch == last_epoch {
                    st = wait_on(&inner.work_cv, st);
                }
                if st.shutdown {
                    return;
                }
                last_epoch = st.epoch;
                st.job.as_ref().expect("job set with epoch").0
            };
            // SAFETY: the JobPtr invariant — `run_phases` is blocked until we
            // decrement `remaining` below, so the pointee is alive.
            unsafe { (*job)(worker) };
            let mut st = lock_state(inner);
            st.remaining -= 1;
            if st.remaining == 0 {
                inner.done_cv.notify_one();
            }
        }
    }

    /// Execute a multi-phase job as a **single fork-join**.
    ///
    /// For each phase `p`, `f(worker, p, range)` is invoked over a static
    /// partition of `0..totals[p]`; all participants synchronise at a
    /// sense-reversing barrier between phases, so phase `p+1` never starts
    /// before every worker finished phase `p`, and writes made in phase `p`
    /// are visible to every reader in phase `p+1` (barrier acquire/release).
    ///
    /// Blocks until every worker has finished every phase. `f` may borrow
    /// from the caller's stack (the join barrier upholds the `JobPtr`
    /// safety invariant). If a phase body panics, the first panic is
    /// rethrown here after the join — the pool itself stays usable.
    ///
    /// Returns per-phase wall-clock times recorded by the caller at the
    /// barriers.
    pub fn run_phases<F>(&mut self, totals: &[usize], f: F) -> PhaseTimes
    where
        F: Fn(usize, usize, Range<usize>) + Sync,
    {
        match self.run_phases_inner(totals, &f, false) {
            (times, None) => times,
            (_, Some(payload)) => resume_unwind(payload),
        }
    }

    /// [`run_phases`](StaticPool::run_phases) that converts a captured
    /// phase-body panic into a typed [`JobPanic`] instead of rethrowing.
    ///
    /// This is the resilient-execution entry point: a worker panic surfaces
    /// as a recoverable `Err`, and the pool (workers parked, bookkeeping
    /// consistent) is immediately reusable for the next job — including on
    /// the inline single-participant fast path, where the caller's own
    /// panic is caught too.
    pub fn run_phases_catching<F>(
        &mut self,
        totals: &[usize],
        f: F,
    ) -> Result<PhaseTimes, JobPanic>
    where
        F: Fn(usize, usize, Range<usize>) + Sync,
    {
        match self.run_phases_inner(totals, &f, true) {
            (times, None) => Ok(times),
            (_, Some(payload)) => Err(JobPanic::from_payload(payload)),
        }
    }

    /// Shared machinery: returns the first captured panic payload instead
    /// of deciding whether to rethrow. `catch_inline` additionally wraps
    /// the no-fan-out fast path in `catch_unwind` (the fan-out path always
    /// captures, so the pool bookkeeping completes either way).
    fn run_phases_inner<F>(
        &mut self,
        totals: &[usize],
        f: &F,
        catch_inline: bool,
    ) -> (PhaseTimes, Option<Box<dyn Any + Send>>)
    where
        F: Fn(usize, usize, Range<usize>) + Sync,
    {
        let phases = totals.len();
        assert!(
            phases <= MAX_PHASES,
            "at most {MAX_PHASES} phases per job (got {phases})"
        );
        self.jobs += 1;
        for (p, &total) in totals.iter().enumerate() {
            partition_into(total, self.threads, &mut self.plan[p]);
        }
        let mut times = PhaseTimes::new(phases);
        let plan = &self.plan[..phases];
        let fan_out = self.threads > 1 && plan.iter().any(|ranges| ranges.len() > 1);
        if !fan_out {
            // Every phase fits one participant: run the whole job inline on
            // the caller without waking anyone.
            let mut mark = Instant::now();
            let mut run = |times: &mut PhaseTimes| {
                phase_loop(0, plan, None, f, |p| {
                    let now = Instant::now();
                    times.times[p] = now - mark;
                    mark = now;
                });
            };
            if catch_inline {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(&mut times))) {
                    return (times, Some(payload));
                }
            } else {
                run(&mut times);
            }
            return (times, None);
        }
        // Seed the per-phase stealing deques from the static plan while every
        // worker is still parked (reset must not race with pops).
        let queues = &self.queues[..phases];
        for (q, ranges) in queues.iter().zip(plan) {
            q.reset(ranges);
        }
        let barrier = Barrier::new(self.threads);
        let panics = PanicSlot::default();
        let sync = (&barrier, &panics, queues);
        let fref = &f;
        let job = move |worker: usize| phase_loop(worker, plan, Some(sync), fref, |_| {});
        let job_dyn: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY of the transmute: we only erase the lifetime; the pointer is
        // never used after `run_phases` returns (join barrier below).
        let ptr: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { core::mem::transmute(job_dyn as *const (dyn Fn(usize) + Sync)) };
        {
            let mut st = lock_state(&self.inner);
            st.job = Some(JobPtr(ptr));
            st.epoch += 1;
            st.remaining = self.handles.len();
            self.inner.work_cv.notify_all();
        }
        // The caller is worker 0 and records the phase timestamps.
        let mut mark = Instant::now();
        phase_loop(0, plan, Some(sync), fref, |p| {
            let now = Instant::now();
            times.times[p] = now - mark;
            mark = now;
        });
        let mut st = lock_state(&self.inner);
        while st.remaining > 0 {
            st = wait_on(&self.inner.done_cv, st);
        }
        st.job = None;
        drop(st);
        if lowino_trace::enabled() {
            // Emitted once per fan-out job as an instant (counters drop
            // zero deltas) so traced runs always carry the marker, steals
            // or not.
            lowino_trace::instant("pool/steal", queues.iter().map(StealQueues::steals).sum());
        }
        let payload = panics.take();
        (times, payload)
    }

    /// Execute `f(worker, range)` over a static partition of `0..total`.
    ///
    /// Single-phase wrapper over [`run_phases`](StaticPool::run_phases).
    pub fn run<F>(&mut self, total: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        self.run_phases(&[total], |worker, _phase, range| f(worker, range));
    }
}

impl Drop for StaticPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.inner);
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_many_jobs() {
        let mut pool = StaticPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 0..50usize {
            let counter = AtomicUsize::new(0);
            pool.run(97, |_, range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 97, "round={round}");
        }
        assert_eq!(pool.fork_joins(), 50);
    }

    #[test]
    fn pool_worker_ids_are_stable_and_distinct() {
        let mut pool = StaticPool::new(3);
        let ids = std::sync::Mutex::new(Vec::new());
        pool.run(3, |w, range| {
            assert_eq!(range.len(), 1);
            ids.lock().unwrap().push((w, range.start));
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort();
        // Worker i always receives partition i.
        assert_eq!(ids, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn pool_empty_job_is_noop() {
        let mut pool = StaticPool::new(2);
        pool.run(0, |_, _| panic!("must not be called"));
    }

    #[test]
    fn pool_more_threads_than_tasks() {
        let mut pool = StaticPool::new(8);
        let counter = AtomicUsize::new(0);
        pool.run(3, |_, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_borrows_stack_data() {
        let mut pool = StaticPool::new(4);
        let data: Vec<usize> = (0..64).collect();
        let sum = AtomicUsize::new(0);
        pool.run(64, |_, range| {
            let local: usize = range.map(|i| data[i]).sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let mut pool = StaticPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(10, |w, range| {
            assert_eq!(w, 0);
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn run_phases_is_one_fork_join() {
        let mut pool = StaticPool::new(4);
        let before = pool.fork_joins();
        let counter = AtomicUsize::new(0);
        let times = pool.run_phases(&[32, 16, 8], |_, phase, range| {
            counter.fetch_add((phase + 1) * range.len(), Ordering::Relaxed);
        });
        assert_eq!(pool.fork_joins(), before + 1);
        assert_eq!(counter.load(Ordering::Relaxed), 32 + 2 * 16 + 3 * 8);
        assert_eq!(times.len(), 3);
        assert_eq!(times.as_slice().len(), 3);
        assert_eq!(times.total(), times[0] + times[1] + times[2]);
    }

    #[test]
    fn run_phases_barrier_orders_phases() {
        let mut pool = StaticPool::new(4);
        let hits: Vec<AtomicUsize> = (0..128).map(|_| AtomicUsize::new(0)).collect();
        pool.run_phases(&[128, 128], |_, phase, range| {
            if phase == 0 {
                for i in range {
                    hits[i].store(i + 1, Ordering::Relaxed);
                }
            } else {
                let sum: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
                assert_eq!(sum, 128 * 129 / 2, "range {range:?} saw a torn phase 0");
            }
        });
    }

    #[test]
    fn run_phases_empty_phase_between_full_ones() {
        let mut pool = StaticPool::new(4);
        let counter = AtomicUsize::new(0);
        let times = pool.run_phases(&[16, 0, 16], |_, phase, range| {
            assert_ne!(phase, 1, "empty phase must not run");
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn run_phases_no_phases_is_noop() {
        let mut pool = StaticPool::new(2);
        let times = pool.run_phases(&[], |_, _, _| panic!("must not be called"));
        assert!(times.is_empty());
        assert_eq!(times.total(), Duration::ZERO);
    }

    #[test]
    fn run_phases_matches_sequential_reference() {
        // Same accumulation executed phased-parallel and sequentially.
        for threads in [1usize, 2, 3, 5] {
            let mut pool = StaticPool::new(threads);
            let cells: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            pool.run_phases(&[40, 20], |_, phase, range| {
                for i in range {
                    cells[i].fetch_add(i + 1 + phase * 100, Ordering::Relaxed);
                }
            });
            for (i, c) in cells.iter().enumerate() {
                let mut want = i + 1; // phase 0 covers all 40
                if i < 20 {
                    want += i + 1 + 100; // phase 1 covers the first 20
                }
                assert_eq!(c.load(Ordering::Relaxed), want, "threads={threads} i={i}");
            }
        }
    }

    #[test]
    fn pool_survives_panic_in_phase() {
        let mut pool = StaticPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_phases(&[16, 16], |_, phase, range| {
                if phase == 0 && range.contains(&5) {
                    panic!("boom in phase 0");
                }
            });
        }));
        let payload = result.expect_err("panic must be rethrown to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool must still be fully functional afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(64, |_, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn fresh_pool_survives_panic_on_the_callers_partition() {
        // The team's very first job panics on worker 0 — the caller itself.
        let mut pool = StaticPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_phases(&[16], |_, _, range| {
                if range.contains(&0) {
                    panic!("first-job boom");
                }
            });
        }));
        assert!(result.is_err());
        let counter = AtomicUsize::new(0);
        pool.run(16, |_, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn run_phases_catching_surfaces_panic_as_error() {
        let mut pool = StaticPool::new(4);
        let err = pool
            .run_phases_catching(&[16, 16], |_, phase, range| {
                if phase == 1 && range.contains(&3) {
                    panic!("typed boom");
                }
            })
            .expect_err("panic must surface as JobPanic");
        assert!(err.message.contains("typed boom"), "got: {err}");
        // Pool reusable, and the clean run succeeds via the same API.
        let counter = AtomicUsize::new(0);
        let times = pool
            .run_phases_catching(&[32], |_, _, range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
            })
            .expect("clean job succeeds");
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn run_phases_catching_covers_inline_fast_path() {
        // One thread ⇒ no fan-out: the caller's own panic must be caught too.
        let mut pool = StaticPool::new(1);
        let err = pool
            .run_phases_catching(&[4], |_, _, _| panic!("inline boom"))
            .expect_err("inline panic must surface as JobPanic");
        assert!(err.message.contains("inline boom"));
        let counter = AtomicUsize::new(0);
        pool.run(10, |_, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn injected_pool_phase_fault_is_caught() {
        use lowino_testkit::faults::POOL_PHASE;
        let mut pool = StaticPool::new(3);
        // Key on phase 3: no other test in this binary runs a 4-phase job,
        // so concurrently-running tests cannot consume the armed fault.
        POOL_PHASE.arm_keyed(phase_fault_key(2, 3));
        let totals = [24, 24, 24, 24];
        let err = pool
            .run_phases_catching(&totals, |_, _, _| {})
            .expect_err("armed fault must trigger");
        assert!(
            err.message.contains("injected fault: pool/phase"),
            "got: {err}"
        );
        assert!(!POOL_PHASE.is_armed(), "fault is one-shot");
        // One-shot: the retry completes clean on the same pool.
        let counter = AtomicUsize::new(0);
        pool.run_phases_catching(&totals, |_, _, range| {
            counter.fetch_add(range.len(), Ordering::Relaxed);
        })
        .expect("disarmed retry succeeds");
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 24);
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let mut pool = StaticPool::new(0);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicUsize::new(0);
        pool.run(7, |w, range| {
            assert_eq!(w, 0);
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 7);
        let times = pool.run_phases(&[5, 0, 3], |w, _, range| {
            assert_eq!(w, 0);
            counter.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!((counter.load(Ordering::Relaxed), times.len()), (15, 3));
    }

    #[test]
    fn run_counts_as_one_fork_join_each() {
        let mut pool = StaticPool::new(2);
        pool.run(8, |_, _| {});
        pool.run(8, |_, _| {});
        pool.run_phases(&[8, 8, 8], |_, _, _| {});
        assert_eq!(pool.fork_joins(), 3);
    }
}
