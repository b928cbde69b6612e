//! Trace-asserted zero-stall seeding (ISSUE 8 acceptance): compiling a
//! graph with empty wisdom must seed every conv's GEMM blocking from the
//! cost model (`tune/seeded` instants present), and a seeded forward pass
//! must run **zero** `tune/measurement` instants — no first-request stall,
//! ever.

use lowino::{Blocking, ConvShape, GemmShape, SimdTier, Tensor4, Wisdom};
use lowino::prelude::*;
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec};
use lowino_testkit::Rng;
use lowino_trace::ring::EventKind;

fn count_instants(name: &str) -> usize {
    lowino_trace::drain()
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.kind == EventKind::Instant && e.name == name)
        .count()
}

#[test]
fn graph_compile_seeds_and_forward_never_measures() {
    let mut model = mini_vgg(3, 8, 3, 0xC0FFEE);
    let mut rng = Rng::seed_from_u64(7);
    let mut x = Tensor4::zeros(2, 3, 8, 8);
    rng.fill_f32(x.data_mut(), -1.0, 1.0);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };

    lowino_trace::set_enabled(true);
    lowino_trace::reset();

    let mut graph = CompiledGraph::compile(&mut model, &x, &spec).expect("compile");
    let seeded = count_instants("tune/seeded");
    assert!(seeded > 0, "compile must seed conv blockings (got no tune/seeded instants)");
    assert_eq!(
        count_instants("tune/measurement"),
        0,
        "compile must never measure"
    );

    // Two forward passes (first grows scratch, second is steady state):
    // still zero measurements.
    lowino_trace::reset();
    let mut logits = Tensor4::zeros(2, graph.classes(), 1, 1);
    graph.execute(&x, &mut logits).expect("forward 1");
    graph.execute(&x, &mut logits).expect("forward 2");
    assert_eq!(
        count_instants("tune/measurement"),
        0,
        "seeded forward passes must never run a measurement sweep"
    );
    lowino_trace::set_enabled(false);
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

#[test]
fn layer_builder_seeds_from_wisdom_exactly() {
    // An exact wisdom entry for the layer's GEMM shape must be what the
    // builder installs (SeedSource::Exact == payload 0 on the instant).
    let spec = ConvShape::same(1, 64, 64, 8, 3).validate().unwrap();
    let weights = Tensor4::from_fn(64, 64, 3, 3, |k, c, y, x| {
        ((k + c + y + x) as f32 * 0.37).sin() * 0.1
    });
    let input = Tensor4::from_fn(1, 64, 8, 8, |_, c, y, x| ((c + y) as f32 * 0.2 + x as f32).cos());
    let img = BlockedImage::from_nchw(&input);

    let geom = spec.tiles(2).unwrap();
    let gemm_shape = GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c };
    let planted = Blocking { n_blk: 7, c_blk: 16, k_blk: 64, row_blk: 2, col_blk: 1 };

    let mut engine = Engine::new(1);
    let tier = engine.context().tier;
    engine.context_mut().wisdom.insert(tier, &gemm_shape, planted);

    lowino_trace::set_enabled(true);
    lowino_trace::reset();
    let mut layer = LayerBuilder::new(spec, &weights)
        .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 2 }))
        .calibration_samples(vec![img.clone()])
        .build(&engine)
        .unwrap();
    let exact_seeds = lowino_trace::drain()
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.kind == EventKind::Instant && e.name == "tune/seeded" && e.arg == 0)
        .count();
    assert!(exact_seeds > 0, "exact wisdom hit must seed with SeedSource::Exact");
    lowino_trace::set_enabled(false);

    let mut out = engine.alloc_output(&spec);
    engine.execute(&mut layer, &img, &mut out).unwrap();
    assert!(out.max_abs() > 0.0);
}

#[test]
fn class_wisdom_generalizes_to_neighbour_shapes_in_the_engine() {
    // Wisdom for one shape seeds a *different* shape in the same
    // power-of-two class (SeedSource::Class == payload 1), with no
    // measurement — the shape-class layer working end to end.
    let tier = SimdTier::detect();
    let mut wisdom = Wisdom::new();
    let tuned_shape = GemmShape { t: 16, n: 200, c: 40, k: 70 };
    wisdom.insert(tier, &tuned_shape, Blocking::default_for(&tuned_shape));

    // Same class (t:16→4, n:129..=256→8, c:33..=64→6, k:65..=128→7)...
    let neighbour = GemmShape { t: 16, n: 190, c: 64, k: 100 };
    let (b, src) = wisdom.blocking_for(tier, &neighbour);
    assert_eq!(src, lowino::SeedSource::Class);
    assert!(b.validate().is_ok());

    // ...but a distant shape falls through to the cost model.
    let distant = GemmShape { t: 36, n: 4096, c: 512, k: 512 };
    let (_, src) = wisdom.blocking_for(tier, &distant);
    assert_eq!(src, lowino::SeedSource::Model);
}
