//! End-to-end resilience: each injectable fault site, armed in turn, must
//! leave [`ResilientConv`] serving finite output within direct-f32
//! tolerance — and reporting which (demoted) algorithm served it. A
//! non-finite output demotes too, reporting the count the executor tallied
//! in its store phase.
//!
//! The fault sites are process-global, so every test here takes
//! `FAULT_LOCK`: an armed site is then always consumed by the test that
//! armed it, never by a concurrently-running pool job from another test.

use std::sync::Mutex;

use lowino::prelude::*;
use lowino::resilient::DemotionReason;
use lowino::{calibrate_winograd_domain, ConvContext, ConvPostOps, DirectF32Conv, LoWinoConv, ResilientConv};
use lowino_nn::{mini_resnet, CompiledGraph, GraphSpec};
use lowino_testkit::faults::{self, CALIBRATE_SAMPLES, GRAPH_PLAN, POOL_PHASE, SCRATCH_GROW};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (ConvShape, Tensor4, BlockedImage) {
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let w = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
        ((k + c + y + x) as f32 * 0.3).sin() * 0.2
    });
    let input = Tensor4::from_fn(1, 8, 10, 10, |_, c, y, x| {
        ((c * 5 + y * 3 + x) as f32 * 0.17).cos()
    });
    (spec, w, BlockedImage::from_nchw(&input))
}

/// Direct-f32 reference output for the layer.
fn reference(spec: ConvShape, w: &Tensor4, img: &BlockedImage) -> BlockedImage {
    let mut conv = DirectF32Conv::new(spec, w).unwrap();
    let mut ctx = ConvContext::new(1);
    let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
    conv.execute(img, &mut out, &mut ctx).unwrap();
    out
}

/// Quantized-rung tolerance against the direct-f32 reference: loose
/// enough for INT8 on a toy 8-channel layer, tight enough to catch a
/// wrong or garbage output.
const TOL: f64 = 0.30;

#[test]
fn pool_phase_fault_demotes_and_serves_within_tolerance() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let (spec, w, img) = setup();
    let want = reference(spec, &w, &img);
    let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
    assert_eq!(conv.algorithm(), Algorithm::LoWino { m: 4 });
    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);

    POOL_PHASE.arm();
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert!(!POOL_PHASE.is_armed(), "fault is one-shot");
    assert_eq!(
        conv.algorithm(),
        Algorithm::UpCast { m: 4 },
        "the worker panic must demote LoWino one rung"
    );
    assert_eq!(conv.demotions().len(), 1);
    assert!(matches!(
        conv.demotions()[0].reason,
        DemotionReason::ExecFailed(ExecError::WorkerPanic { .. })
    ));
    assert!(out.to_nchw().data().iter().all(|v| v.is_finite()));
    let err = out.to_nchw().rel_l2_error(&want.to_nchw());
    assert!(err < TOL, "rel error {err}");
}

#[test]
fn one_nan_in_the_residual_demotes_lowino_with_the_count_a_scan_finds() {
    // ReLU off, so the residual's one NaN — at the last pixel, a clipped
    // corner of a ragged F(4,3) tile (H' = 10 = 2·4 + 2) — reaches the
    // output of every rung and the ladder runs dry. The first demotion
    // reports what LoWino tallied in its store phase; a scan of the same
    // layer's output must agree.
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let (spec, w, img) = setup();
    let mut res = BlockedImage::zeros(1, 8, 10, 10);
    res.lanes_mut(0, 0, 9, 9)[7] = f32::NAN;
    let post = ConvPostOps { residual: Some(&res), ..ConvPostOps::default() };
    let mut ctx = ConvContext::new(2);
    let samples = vec![img.clone()];
    let scale = calibrate_winograd_domain(&spec, 4, &samples).unwrap();
    let mut lowino = LoWinoConv::new(spec, 4, &w, scale).unwrap();
    let mut scanned = BlockedImage::zeros(1, 8, 10, 10);
    lowino.execute_post(&img, &mut scanned, &post, &mut ctx).unwrap();
    let scan = scanned.data().iter().filter(|v| !v.is_finite()).count() as u64;
    assert_eq!(scan, 1);

    let mut conv = ResilientConv::new(spec, 4, &w, samples).unwrap();
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    let err = conv.execute_post(&img, &mut out, &post, &mut ctx).unwrap_err();
    assert!(err.to_string().contains("exhausted"), "{err}");
    let first = &conv.demotions()[0];
    assert_eq!((first.from, first.to), (Algorithm::LoWino { m: 4 }, Algorithm::UpCast { m: 4 }));
    assert!(
        matches!(first.reason, DemotionReason::NonFiniteOutput { count } if count == scan),
        "{:?}",
        first.reason
    );
    assert!(conv.demotions().iter().all(|d| matches!(d.reason, DemotionReason::NonFiniteOutput { count: 1 })));
}

#[test]
fn scratch_grow_fault_demotes_and_serves_within_tolerance() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let (spec, w, img) = setup();
    let want = reference(spec, &w, &img);
    let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
    // Fresh context: the first execute must grow the scratch arena, which
    // is where the armed fault panics.
    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);

    SCRATCH_GROW.arm();
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert!(!SCRATCH_GROW.is_armed(), "fault is one-shot");
    assert_eq!(conv.algorithm(), Algorithm::UpCast { m: 4 });
    assert!(matches!(
        conv.demotions()[0].reason,
        DemotionReason::ExecFailed(ExecError::WorkerPanic { .. })
    ));
    assert!(out.to_nchw().data().iter().all(|v| v.is_finite()));
    let err = out.to_nchw().rel_l2_error(&want.to_nchw());
    assert!(err < TOL, "rel error {err}");
}

#[test]
fn calibrate_fault_demotes_at_construction_and_serves() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let (spec, w, img) = setup();
    let want = reference(spec, &w, &img);

    // LoWino's Winograd-domain calibration consumes the armed fault, so
    // construction demotes; up-cast's spatial calibration then succeeds.
    CALIBRATE_SAMPLES.arm();
    let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
    assert!(!CALIBRATE_SAMPLES.is_armed(), "fault is one-shot");
    assert_eq!(conv.algorithm(), Algorithm::UpCast { m: 4 });
    assert_eq!(conv.demotions().len(), 1);
    assert!(matches!(
        conv.demotions()[0].reason,
        DemotionReason::BuildFailed(ConvError::Calibration(_))
    ));

    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert!(out.to_nchw().data().iter().all(|v| v.is_finite()));
    let err = out.to_nchw().rel_l2_error(&want.to_nchw());
    assert!(err < TOL, "rel error {err}");
}

#[test]
fn wisdom_save_fault_leaves_engine_serving() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let (spec, w, img) = setup();
    let want = reference(spec, &w, &img);

    // A failed wisdom save is an I/O error, not an execution failure: the
    // in-memory wisdom keeps serving and the layer still executes.
    let dir = std::env::temp_dir().join("lowino_resilience_wisdom_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wisdom.txt");
    let mut ctx = ConvContext::new(1);
    faults::WISDOM_SAVE.arm();
    let err = ctx.wisdom.save(&path).unwrap_err();
    assert!(err.contains("injected fault: wisdom/save"), "{err}");
    assert!(!faults::WISDOM_SAVE.is_armed(), "fault is one-shot");

    let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert_eq!(conv.algorithm(), Algorithm::LoWino { m: 4 });
    let err = out.to_nchw().rel_l2_error(&want.to_nchw());
    assert!(err < TOL, "rel error {err}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Whole-model graph engine under fault injection
// ---------------------------------------------------------------------------

fn graph_input(batch: usize, seed: u64) -> Tensor4 {
    let mut rng = lowino_testkit::Rng::seed_from_u64(seed);
    let mut t = Tensor4::zeros(batch, 3, 8, 8);
    rng.fill_f32(t.data_mut(), -1.0, 1.0);
    t
}

#[test]
fn graph_plan_fault_degrades_plan_but_not_output() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let x = graph_input(2, 41);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };

    // Healthy compile for the reference logits.
    let mut model = mini_resnet(3, 8, 3, 41);
    let mut healthy = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    assert!(!healthy.plan_degraded());
    let want = healthy.logits(&x);

    // Armed GRAPH_PLAN: the planner falls back to the disjoint layout.
    // The arena gets bigger, but slot contents — and therefore the
    // logits — must be bitwise unchanged.
    GRAPH_PLAN.arm();
    let mut model = mini_resnet(3, 8, 3, 41);
    let mut degraded = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    assert!(!GRAPH_PLAN.is_armed(), "fault is one-shot");
    assert!(degraded.plan_degraded(), "armed fault must degrade the plan");
    assert!(
        degraded.plan_bytes() >= healthy.plan_bytes(),
        "disjoint fallback cannot be smaller than the packed plan"
    );
    let got = degraded.logits(&x);
    let same = want
        .data()
        .iter()
        .zip(got.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "degraded plan changed the logits");
}

#[test]
fn calibrate_fault_during_graph_compile_demotes_one_conv() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let x = graph_input(2, 43);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };

    // The armed fault fires inside the first conv's Winograd-domain
    // calibration; ResilientConv demotes that rung at build time and the
    // rest of the model compiles on the healthy path.
    CALIBRATE_SAMPLES.arm();
    let mut model = mini_resnet(3, 8, 3, 43);
    let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    assert!(!CALIBRATE_SAMPLES.is_armed(), "fault is one-shot");
    assert!(
        g.demotion_count() >= 1,
        "compile-time calibration fault must be recorded as a demotion"
    );
    let logits = g.logits(&x);
    assert!(logits.data().iter().all(|v| v.is_finite()));
}

#[test]
fn pool_phase_fault_mid_model_demotes_and_finishes() {
    let _guard = FAULT_LOCK.lock().unwrap();
    faults::disarm_all();
    let x = graph_input(2, 47);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };
    let mut model = mini_resnet(3, 8, 3, 47);
    let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    // Warm-up: all executors healthy.
    let mut logits = Tensor4::zeros(2, 3, 1, 1);
    g.execute(&x, &mut logits).unwrap();
    assert_eq!(g.demotion_count(), 0);

    // A worker panic mid-model must be absorbed by that conv's demotion
    // ladder; the rest of the graph keeps running and the output stays
    // finite.
    POOL_PHASE.arm();
    g.execute(&x, &mut logits).unwrap();
    assert!(!POOL_PHASE.is_armed(), "fault is one-shot");
    assert_eq!(g.demotion_count(), 1, "exactly one conv demotes");
    assert!(logits.data().iter().all(|v| v.is_finite()));

    // And the demoted graph keeps serving finite output afterwards.
    g.execute(&x, &mut logits).unwrap();
    assert!(logits.data().iter().all(|v| v.is_finite()));
}
