//! Release-mode guard that cost-model pruning keeps the measured winner:
//! the offline tuner ([`tune_blocking`]) times only the model's top-K
//! candidates, so that set must contain a blocking within 10 % of the
//! full-lattice sweep's best.

use lowino_gemm::{tune_blocking, tune_blocking_full, Blocking, GemmShape, TUNE_TOP_K};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

/// Head-to-head rounds between the two finalists (odd, so the median is
/// one round's ratio).
const DUEL_ROUNDS: usize = 11;

/// Acceptance guard: on the three bench GEMM shapes, measuring
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
        // shared host to decide a 90% bar between two near-equal
        // blockings, and so is one head-to-head: a noisy phase that hits
        // one side of it decides the verdict. Re-measure the two
        // finalists in interleaved rounds, alternating which goes first,
        // and judge the median per-round ratio.
        let mut ratios: Vec<f64> = (0..DUEL_ROUNDS)
            .map(|round| {
                let mut pair = [full_best, topk_best];
                if round % 2 == 1 {
                    pair.reverse();
                }
                let (_, m) = lowino_gemm::measure_candidates(tier, &shape, &pair, &mut pool, 3);
                let secs = |b: Blocking| {
                    let hit = m.iter().find(|x| x.blocking == b).expect("measured");
                    hit.time.as_secs_f64()
                };
                secs(topk_best) / secs(full_best)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let ratio = ratios[DUEL_ROUNDS / 2];
        println!(
            "{name}: full winner {full_best:?}, top-K winner {topk_best:?} \
             (median {ratio:.3}x over {DUEL_ROUNDS} rounds, {:.3}x..{:.3}x)",
            ratios[0],
            ratios[DUEL_ROUNDS - 1]
        );
        assert!(
            ratio <= 1.0 / 0.9,
            "{name}: top-K winner reaches only {:.1}% of full-sweep throughput",
            100.0 / ratio
        );
    }
}
