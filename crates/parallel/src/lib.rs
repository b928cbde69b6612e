//! # lowino-parallel
//!
//! Static-scheduling multi-core substrate (paper §4.4).
//!
//! LoWino parallelises each pipeline stage with a *static* schedule: the task
//! space is pre-partitioned into `ω` equal contiguous ranges at plan time —
//! one per thread — and the whole job executes as a single fork-join, so
//! memory-access patterns are stable across invocations. On top of that seed
//! schedule, [`StealQueues`] adds *bounded* intra-phase work-stealing: a
//! worker that drains its own partition early steals half of the richest
//! victim's remainder instead of idling at the inter-phase barrier. Unlike a
//! rayon-style deque-per-spawn scheduler there is no task heap and no
//! allocation in the hot path — one packed atomic cursor per worker.
//!
//! Four layers are provided:
//!
//! * [`partition()`] / [`partition_2d()`] — the pure scheduling maths (tested
//!   exhaustively);
//! * [`Barrier`] — a sense-reversing spin barrier used to hand off between
//!   the phases of a multi-stage job without parking the workers;
//! * [`StealQueues`] — per-worker chunked deques (one packed `(next, end)`
//!   atomic cursor each) that re-balance a phase's tail without disturbing
//!   the static seed assignment;
//! * [`StaticPool`] — a persistent fork-join worker pool built from parked
//!   OS threads whose [`StaticPool::run_phases`] executes an entire layer
//!   (transform → GEMM → transform) as **one** fork-join with stealing
//!   inside each phase.

pub mod barrier;
pub mod partition;
pub mod pool;
pub mod steal;

pub use barrier::{Barrier, SenseToken};
pub use partition::{partition, partition_2d, partition_into, Partition2d};
pub use pool::{phase_fault_key, JobPanic, PhaseTimes, StaticPool, MAX_PHASES};
pub use steal::{chunk_was_stolen, Chunk, StealQueues};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_run_covers_all_tasks_once() {
        let counter = AtomicUsize::new(0);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        StaticPool::new(4).run(100, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
