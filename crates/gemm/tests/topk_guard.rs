//! Release-mode guard that cost-model pruning keeps the measured winner:
//! the offline tuner ([`tune_blocking`]) times only the model's top-K
//! candidates, so that set must contain a blocking within 10 % of the
//! full-lattice sweep's best.

use lowino_gemm::{tune_blocking, tune_blocking_full, GemmShape, TUNE_TOP_K};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

/// Acceptance guard (ISSUE 8): on the three bench GEMM shapes, measuring
/// only the cost model's top-K must reach ≥90% of the full-lattice-sweep
/// winner's throughput. Timing-sensitive, so it is `#[ignore]`d under the
/// plain (debug) test run and executed release-mode by `ci/check.sh`.
#[test]
#[ignore = "timing-sensitive; run release-mode via ci/check.sh"]
fn topk_pruning_keeps_at_least_90_percent_of_full_sweep_throughput() {
    let tier = SimdTier::detect();
    // ResNet-50_b, ResNet-50_c, VGG16_c stage-② shapes (F(2,3), batch 1;
    // n reduced to keep the full sweep affordable in CI).
    let shapes = [
        ("ResNet-50_b", GemmShape { t: 16, n: 196, c: 256, k: 256 }),
        ("ResNet-50_c", GemmShape { t: 16, n: 64, c: 512, k: 512 }),
        ("VGG16_c", GemmShape { t: 16, n: 128, c: 512, k: 512 }),
    ];
    let mut pool = StaticPool::new(2);
    for (name, shape) in shapes {
        let (full_best, full_log) = tune_blocking_full(tier, &shape, &mut pool, 3);
        let (topk_best, topk_log) = tune_blocking(tier, &shape, &mut pool, 3);
        assert!(topk_log.len() <= TUNE_TOP_K);
        assert!(topk_log.len() < full_log.len(), "{name}: pruning pruned nothing");
        if topk_best == full_best {
            println!("{name}: top-K winner is the full-sweep winner ({topk_best:?})");
            continue;
        }
        // The sweeps time each candidate best-of-3 — too noisy on a
        // shared core to decide a 90% bar between two near-equal
        // blockings. Re-measure only the two finalists head-to-head at
        // higher repeats and judge on that.
        let (_, duel) =
            lowino_gemm::measure_candidates(tier, &shape, &[full_best, topk_best], &mut pool, 7);
        let ratio = duel[1].time.as_secs_f64() / duel[0].time.as_secs_f64();
        println!("{name}: full winner {full_best:?}, top-K winner {topk_best:?} ({ratio:.3}x)");
        assert!(
            ratio <= 1.0 / 0.9,
            "{name}: top-K winner reaches only {:.1}% of full-sweep throughput",
            100.0 / ratio
        );
    }
}
