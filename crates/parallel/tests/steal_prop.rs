//! Properties of the bounded intra-phase work-stealing scheduler.
//!
//! The load-bearing invariant is *exactly-once execution*: however pops and
//! steals interleave, every task index seeded into [`StealQueues`] is
//! claimed by exactly one `pop` — that is what keeps the executors' unsafe
//! disjoint-write panels race-free under dynamic scheduling. The
//! interleaving property drives the queues directly with a testkit-PRNG
//! schedule (replayable via `LOWINO_PROP_SEED`); the pool-level tests prove
//! the same through `StaticPool::run_phases`, including a panic landing
//! mid-steal via the `pool/phase` fault site.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lowino_parallel::{chunk_was_stolen, phase_fault_key, StaticPool, StealQueues};
use lowino_testkit::prop::vec_of;
use lowino_testkit::{prop_assert, property, Rng};

property! {
    /// Randomized steal interleavings claim every seeded task exactly once,
    /// for arbitrary worker counts and arbitrarily skewed seed partitions
    /// (including workers seeded empty, who can only ever steal).
    #[cases(96)]
    fn every_task_claimed_exactly_once(
        seed in 0u64..u64::MAX,
        lens in vec_of(0usize..40, 1..6),
    ) {
        let workers = lens.len();
        let queues = StealQueues::new(workers);
        let mut plan = Vec::with_capacity(workers);
        let mut start = 0usize;
        for &len in &lens {
            plan.push(start..start + len);
            start += len;
        }
        let total = start;
        queues.reset(&plan);

        let mut rng = Rng::seed_from_u64(seed);
        let mut claimed = vec![0u32; total];
        // Random interleaving: any worker may pop at any step. A worker
        // whose pop returns None may become productive again only if new
        // work appeared — it cannot here, but re-polling exercised the
        // drained path, so keep polling everyone until a full idle sweep.
        loop {
            let mut progressed = false;
            // Random burst of pops from random workers…
            for _ in 0..(1 + rng.range_usize(0, 2 * workers)) {
                let w = rng.range_usize(0, workers);
                if let Some(chunk) = queues.pop(w) {
                    progressed = true;
                    for i in chunk.range {
                        claimed[i] += 1;
                    }
                }
            }
            if progressed {
                continue;
            }
            // …then a deterministic sweep: only stop once *every* worker
            // reports empty back-to-back.
            let drained = (0..workers).all(|w| {
                match queues.pop(w) {
                    None => true,
                    Some(chunk) => {
                        for i in chunk.range {
                            claimed[i] += 1;
                        }
                        false
                    }
                }
            });
            if drained {
                break;
            }
        }
        for (i, &n) in claimed.iter().enumerate() {
            prop_assert!(n == 1, "task {i} claimed {n} times (lens={lens:?})");
        }
    }
}

/// The `pool/phase` fault site is process-global: a fault one test arms for
/// `(worker 1, phase 0)` would fire in whichever pool reaches that key
/// first, so the tests that run a real pool take turns.
static POOL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn pool_turn() -> std::sync::MutexGuard<'static, ()> {
    POOL_TESTS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Through the real pool: a phase whose first static chunk stalls hands the
/// rest of that worker's partition to thieves; every task still runs exactly
/// once and at least one chunk is observed as stolen.
#[test]
fn pool_steals_from_a_stalled_worker() {
    let _turn = pool_turn();
    let mut pool = StaticPool::new(2);
    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    let saw_stolen = AtomicBool::new(false);
    pool.run_phases(&[64], |_, _, range| {
        if chunk_was_stolen() {
            saw_stolen.store(true, Ordering::SeqCst);
        }
        // Worker 0's own first chunk contains task 0: parking it hands the
        // tail of partition 0 to worker 1's thief.
        if range.contains(&0) {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        for i in range {
            hits[i].fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(
        hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
        "stealing lost or duplicated a task"
    );
    assert!(
        saw_stolen.load(Ordering::SeqCst),
        "a 25ms stall on worker 0 must trigger at least one steal"
    );
}

/// A `pool/phase` fault firing on a worker's chunk loop — i.e. a panic while
/// the other workers are actively popping and stealing the same phase —
/// surfaces as a typed `JobPanic` and leaves the pool fully reusable.
#[test]
fn panic_mid_steal_leaves_pool_reusable() {
    use lowino_testkit::faults::POOL_PHASE;
    let _turn = pool_turn();
    let mut pool = StaticPool::new(3);
    POOL_PHASE.arm_keyed(phase_fault_key(1, 0));
    let err = pool
        .run_phases_catching(&[96], |_, _, range| {
            // Enough work per chunk that the survivors are still draining
            // (and stealing worker 1's abandoned remainder) when the armed
            // fault fires.
            for i in range {
                std::hint::black_box(i);
            }
        })
        .expect_err("armed pool/phase fault must trigger");
    assert!(
        err.message.contains("injected fault: pool/phase"),
        "got: {err}"
    );
    assert!(!POOL_PHASE.is_armed(), "fault is one-shot");

    // The pool must be immediately reusable, with exactly-once coverage.
    let hits: Vec<AtomicUsize> = (0..96).map(|_| AtomicUsize::new(0)).collect();
    pool.run_phases(&[96], |_, _, range| {
        for i in range {
            hits[i].fetch_add(1, Ordering::SeqCst);
        }
    });
    assert!(
        hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
        "pool unhealthy after mid-steal panic"
    );
}
