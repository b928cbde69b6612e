//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **tile size** — LoWino `F(2,3)` vs `F(4,3)` vs `F(6,3)` on one layer;
//! * **blocking** — tuned-ish default vs deliberately poor GEMM blocking;
//! * **SIMD tier** — the same LoWino layer on every available tier;
//! * **scheduling** — thread scaling of the static fork-join schedule;
//! * **tuned vs default** — Autotuner 2.0 seeding quality on one layer:
//!   planner default vs pure cost-model seed vs measured top-K winner vs
//!   full-lattice-sweep winner (PR 8 acceptance table in EXPERIMENTS.md).
//!
//! The graph engine's per-op overhead is guarded in release by
//! `tests/graph_overhead.rs`; its health checks read counts the executors
//! tally while storing, and nothing switches them off to compare against.
//!
//! Run with `cargo bench --bench ablations`; set
//! `LOWINO_BENCH_JSON=BENCH_ablations.json` to accumulate a JSON-line log.

use lowino::prelude::*;
use lowino::{Blocking, SimdTier};
use lowino_bench::layers::layer_by_name;
use lowino_bench::{build_executor, synth_input, synth_weights};
use lowino_testkit::{black_box, BenchGroup};
use std::time::Duration;

fn common(group_name: &str) -> BenchGroup {
    let mut g = BenchGroup::new(group_name);
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g
}

fn ablation_tile_size() {
    let layer = layer_by_name("VGG16_c").unwrap();
    let spec = layer.shape(32, 1);
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let mut engine = Engine::new(1);
    let mut out = engine.alloc_output(&spec);
    let mut group = common("ablation/tile_size");
    for m in [2usize, 4, 6] {
        let mut l = build_executor(Algorithm::LoWino { m }, &spec, &weights, &input, &engine)
            .expect("plan");
        group.bench_function(format!("lowino_m/{m}"), || {
            let t = engine.execute(&mut l, &input, &mut out).expect("bench rep");
            black_box(t.total());
        });
    }
}

fn ablation_blocking() {
    let layer = layer_by_name("ResNet-50_c").unwrap();
    let spec = layer.shape(16, 1);
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let mut engine = Engine::new(1);
    let mut out = engine.alloc_output(&spec);
    let blockings = [
        (
            "default-6x4",
            None, // planner default
        ),
        (
            "degenerate-1x1",
            Some(Blocking {
                n_blk: 4,
                c_blk: 64,
                k_blk: 64,
                row_blk: 1,
                col_blk: 1,
            }),
        ),
        (
            "wide-8x2",
            Some(Blocking {
                n_blk: 96,
                c_blk: 512,
                k_blk: 256,
                row_blk: 8,
                col_blk: 2,
            }),
        ),
    ];
    let mut group = common("ablation/blocking");
    for (name, blocking) in blockings {
        if let Some(b) = blocking {
            // Plan a dedicated executor so the blocking can be overridden.
            use lowino::{ConvExecutor, LoWinoConv};
            let cal = lowino::calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&input)).unwrap();
            let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
            conv.set_blocking(b);
            group.bench_function(format!("blocking/{name}"), || {
                let t = conv.execute(&input, &mut out, engine.context_mut()).expect("bench rep");
                black_box(t.total());
            });
        } else {
            let mut l =
                build_executor(Algorithm::LoWino { m: 4 }, &spec, &weights, &input, &engine)
                    .expect("plan");
            group.bench_function(format!("blocking/{name}"), || {
                let t = engine.execute(&mut l, &input, &mut out).expect("bench rep");
                black_box(t.total());
            });
        }
    }
}

fn ablation_simd_tier() {
    let layer = layer_by_name("GoogLeNet_b").unwrap();
    let spec = layer.shape(32, 1);
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let mut group = common("ablation/simd_tier");
    for tier in SimdTier::available() {
        let mut engine = Engine::with_tier(1, tier);
        let mut out = engine.alloc_output(&spec);
        let mut l = build_executor(Algorithm::LoWino { m: 4 }, &spec, &weights, &input, &engine)
            .expect("plan");
        group.bench_function(tier, || {
            let t = engine.execute(&mut l, &input, &mut out).expect("bench rep");
            black_box(t.total());
        });
    }
}

fn ablation_scheduling() {
    let layer = layer_by_name("ResNet-50_b").unwrap();
    let spec = layer.shape(32, 1);
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let mut group = common("ablation/threads");
    for threads in [1usize, 2, 4] {
        let mut engine = Engine::new(threads);
        let mut out = engine.alloc_output(&spec);
        let mut l = build_executor(Algorithm::LoWino { m: 4 }, &spec, &weights, &input, &engine)
            .expect("plan");
        group.bench_function(format!("static/{threads}"), || {
            let t = engine.execute(&mut l, &input, &mut out).expect("bench rep");
            black_box(t.total());
        });
    }
}

/// Autotuner 2.0 seeding quality: how close do the zero-cost seeds get
/// to the measured winners? Four blockings for the same layer GEMM —
/// planner default, pure cost-model seed (what an empty-wisdom engine
/// installs at compile time), the measured winner among the cost model's
/// top-K, and the measured winner of the full candidate lattice.
fn ablation_tuned_vs_default() {
    use lowino::{ConvExecutor, GemmCostModel, GemmShape, LoWinoConv};
    use lowino_gemm::{tune_blocking, tune_blocking_full};
    use lowino_parallel::StaticPool;

    let mut group = common("ablation/tuned_vs_default");
    for layer_name in ["ResNet-50_b", "ResNet-50_c", "VGG16_c"] {
        let layer = layer_by_name(layer_name).unwrap();
        let spec = layer.shape(16, 1);
        let weights = synth_weights(&spec, 42);
        let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
        let mut engine = Engine::new(1);
        let tier = engine.context().tier;
        let mut out = engine.alloc_output(&spec);

        let geom = spec.tiles(4).unwrap();
        let shape = GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c };
        let mut pool = StaticPool::new(1);
        let candidates = [
            ("default", Blocking::default_for(&shape)),
            ("cost_seed", GemmCostModel::default().seed(tier, &shape)),
            ("topk_measured", tune_blocking(tier, &shape, &mut pool, 2).0),
            ("full_measured", tune_blocking_full(tier, &shape, &mut pool, 2).0),
        ];

        let cal =
            lowino::calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&input)).unwrap();
        let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        for (name, blocking) in candidates {
            conv.set_blocking(blocking);
            group.bench_function(format!("{layer_name}/{name}"), || {
                let t = conv.execute(&input, &mut out, engine.context_mut()).expect("bench rep");
                black_box(t.total());
            });
        }
    }
}

fn main() {
    ablation_tile_size();
    ablation_blocking();
    ablation_simd_tier();
    ablation_scheduling();
    ablation_tuned_vs_default();
}
