//! Property tests for the phased fork-join: a `run_phases` schedule must be
//! indistinguishable from running the phases sequentially — every task of
//! every phase executes exactly once, phases are totally ordered by the
//! in-pool barrier, and the whole schedule costs exactly one fork-join —
//! for any (threads, phases, totals) shape. A panicking phase body must
//! surface the panic on the caller and leave the pool usable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lowino_parallel::StaticPool;
use lowino_testkit::prop::vec_of;
use lowino_testkit::{prop_assert, property};

/// A task-distinguishing value so lost/duplicated/misrouted tasks are
/// detectable, not just counted.
fn mix(phase: usize, task: usize) -> usize {
    phase
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(task.wrapping_mul(31))
        ^ (task >> 3)
}

/// Shared observation state for one schedule run.
struct Trace {
    /// One slot per (phase, task); `usize::MAX` = never executed.
    slots: Vec<Vec<AtomicUsize>>,
    /// Tasks completed per phase.
    done: Vec<AtomicUsize>,
    /// Set if any phase body started before the previous phase finished.
    order_violated: AtomicBool,
}

impl Trace {
    fn new(totals: &[usize]) -> Self {
        Self {
            slots: totals
                .iter()
                .map(|&t| (0..t).map(|_| AtomicUsize::new(usize::MAX)).collect())
                .collect(),
            done: totals.iter().map(|_| AtomicUsize::new(0)).collect(),
            order_violated: AtomicBool::new(false),
        }
    }

    fn body(&self, totals: &[usize], phase: usize, range: std::ops::Range<usize>) {
        if phase > 0 && self.done[phase - 1].load(Ordering::SeqCst) != totals[phase - 1] {
            self.order_violated.store(true, Ordering::SeqCst);
        }
        for task in range {
            self.slots[phase][task].store(mix(phase, task), Ordering::SeqCst);
            self.done[phase].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn check(&self, totals: &[usize]) -> Result<(), String> {
        if self.order_violated.load(Ordering::SeqCst) {
            return Err("a phase started before the previous phase finished".into());
        }
        for (phase, &total) in totals.iter().enumerate() {
            let done = self.done[phase].load(Ordering::SeqCst);
            if done != total {
                return Err(format!("phase {phase}: {done}/{total} tasks ran"));
            }
            for task in 0..total {
                let got = self.slots[phase][task].load(Ordering::SeqCst);
                if got != mix(phase, task) {
                    return Err(format!("phase {phase} task {task}: slot holds {got}"));
                }
            }
        }
        Ok(())
    }
}

property! {
    /// `StaticPool::run_phases` over arbitrary (threads, totals) shapes is
    /// equivalent to sequential phase-by-phase execution, and the whole
    /// multi-phase schedule is exactly one fork-join.
    #[cases(48)]
    fn pool_run_phases_matches_sequential(
        threads in 1usize..6,
        totals in vec_of(0usize..48, 0..5),
    ) {
        let mut pool = StaticPool::new(threads);
        let trace = Trace::new(&totals);
        let before = pool.fork_joins();
        let times = pool.run_phases(&totals, |_, phase, range| {
            trace.body(&totals, phase, range);
        });
        prop_assert!(
            pool.fork_joins() - before == 1,
            "run_phases must count as exactly one fork-join"
        );
        prop_assert!(
            times.len() == totals.len(),
            "one timing per phase: {} vs {}",
            times.len(),
            totals.len()
        );
        trace.check(&totals)?;
    }
}

/// A panic in any phase, at any thread count, must propagate to the caller
/// and leave the pool fully functional — workers re-parked, no wedged
/// barrier, next job runs normally.
#[test]
fn panic_in_any_phase_leaves_pool_usable() {
    for threads in [1, 2, 4] {
        for panic_phase in 0..3usize {
            let mut pool = StaticPool::new(threads);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_phases(&[8, 8, 8], |_, phase, _range| {
                    if phase == panic_phase {
                        panic!("boom in phase {panic_phase}");
                    }
                });
            }));
            assert!(
                result.is_err(),
                "panic in phase {panic_phase} must reach the caller (threads={threads})"
            );

            // The pool must still complete fresh jobs afterwards.
            let sum = AtomicUsize::new(0);
            pool.run(100, |_, range| {
                sum.fetch_add(range.sum::<usize>(), Ordering::SeqCst);
            });
            assert_eq!(
                sum.load(Ordering::SeqCst),
                4950,
                "pool wedged after panic in phase {panic_phase} (threads={threads})"
            );
        }
    }
}
