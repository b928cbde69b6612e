//! Regression guard for the PR-8 ablation finding: the graph engine's
//! per-op bookkeeping (arena view construction, epilogue dispatch, the
//! op-table walk) costs ~2–4% over a layer-at-a-time interpreter on
//! MiniVGG-sized layers, and that gap was **accepted** rather than
//! optimised (see EXPERIMENTS.md, "Graph-vs-per_layer gap"). This test
//! pins the acceptance: if a future change silently widens the gap past
//! the bound below, the guard trips and the regression has to be
//! re-justified instead of riding in unnoticed. The baseline is the
//! per-layer test oracle (`common/per_layer.rs`), whose glue is kept lean
//! for exactly this comparison.
//!
//! Methodology: identical weights and input, same batch/threads, and the
//! two paths are timed
//! **interleaved** (one rep each, alternating) so drift — thermal,
//! frequency, a noisy neighbour on the CI host — lands on both sides
//! equally. Medians over 31 reps; debug-build timings are meaningless,
//! so the guard is `#[ignore]`d and ci/check.sh runs it in release.

use std::time::Instant;

#[path = "common/per_layer.rs"]
mod per_layer;

use lowino::{Algorithm, Tensor4};
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec, QuantizedSpec};
use lowino_testkit::Rng;
use per_layer::PerLayer;

/// Accepted graph-engine overhead over the per-layer interpreter.
/// EXPERIMENTS.md puts the real gap at ~2–4%; the bound leaves headroom
/// for CI noise while still catching anything that doubles it.
const MAX_OVERHEAD: f64 = 1.15;
const REPS: usize = 31;

fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

#[test]
#[ignore = "timing guard: run in release (ci/check.sh does)"]
fn graph_engine_overhead_stays_within_accepted_bound() {
    let (batch, threads) = (4usize, 2usize);
    let mut rng = Rng::seed_from_u64(11);
    let mut x = Tensor4::zeros(batch, 3, 8, 8);
    rng.fill_f32(x.data_mut(), -1.0, 1.0);
    let calib = x.clone();

    let mut model = mini_vgg(3, 8, 3, 31);
    let spec = GraphSpec { m: 2, batch, threads };
    let mut graph = CompiledGraph::compile(&mut model, &calib, &spec).expect("compile graph");

    let mut model = mini_vgg(3, 8, 3, 31);
    let mut per_layer = PerLayer::quantize(
        &mut model,
        &calib,
        &QuantizedSpec {
            algorithm: Algorithm::LoWino { m: 2 },
            per_position: false,
            batch,
            threads,
        },
    )
    .expect("convert per-layer model");

    let mut logits = Tensor4::zeros(batch, 3, 1, 1);

    // Warm both paths: scratch arenas grow, wisdom settles, caches fill.
    for _ in 0..3 {
        graph.execute(&x, &mut logits).expect("graph warm-up");
        lowino_testkit::black_box(per_layer.logits(&x));
    }

    let mut graph_ns = Vec::with_capacity(REPS);
    let mut layer_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        graph.execute(&x, &mut logits).expect("graph rep");
        lowino_testkit::black_box(logits.data()[0]);
        graph_ns.push(t.elapsed().as_nanos() as u64);

        let t = Instant::now();
        let out = per_layer.logits(&x);
        lowino_testkit::black_box(out.data()[0]);
        layer_ns.push(t.elapsed().as_nanos() as u64);
    }

    let g = median_ns(graph_ns);
    let p = median_ns(layer_ns);
    let ratio = g as f64 / p as f64;
    eprintln!(
        "graph_overhead guard: graph {g} ns vs per_layer {p} ns (ratio {ratio:.4}, \
         bound {MAX_OVERHEAD})"
    );
    assert!(
        ratio <= MAX_OVERHEAD,
        "graph engine overhead regressed: {g} ns vs per-layer {p} ns \
         (ratio {ratio:.4} > {MAX_OVERHEAD}); the ~2-4% accepted gap from the PR-8 \
         ablation (EXPERIMENTS.md) has widened — profile the graph's per-op path \
         and either fix the bookkeeping or re-justify the bound"
    );
}
