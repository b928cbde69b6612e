//! Steady-state execution audit for the single-fork-join executors:
//!
//! * after the first `execute` on a shape has grown the per-worker scratch
//!   arenas (and, for a staged LoWino layer, allocated its whole-layer
//!   panels), repeated executes perform **zero heap allocations** — on
//!   LoWino's staged and depth-first schedules alike;
//! * every executor issues exactly **one** pool fork-join per `execute`;
//! * the fused LoWino schedule is bitwise identical to the retained
//!   three-fork-join reference path.
//!
//! The allocation count comes from `lowino_testkit::alloc`: a counting
//! `#[global_allocator]` armed only around the audited region, with every
//! test of this binary holding its `audit()` guard so no sibling test's
//! heap traffic can land in an armed window.

use lowino_conv::{
    calibrate_spatial, calibrate_winograd_domain, ConvContext, ConvExecutor, DirectInt8Conv,
    DownScaleConv, LoWinoConv, UpCastConv, WinogradF32Conv,
};
use lowino_gemm::CacheModel;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4};
use lowino_testkit::alloc::{audit, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn test_image(spec: &ConvShape) -> BlockedImage {
    let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
        ((b * 41 + c * 17 + y * 5 + x * 3) as f32 * 0.23).sin()
    });
    BlockedImage::from_nchw(&input)
}

fn test_weights(spec: &ConvShape) -> Tensor4 {
    Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
        ((k * 11 + c * 7 + y * 3 + x) as f32 * 0.37).cos() * 0.3
    })
}

#[test]
fn lowino_steady_state_allocates_nothing_and_is_one_fork_join() {
    let audit = audit();
    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
    let mut out = BlockedImage::zeros(2, 16, 12, 12);

    // A cache model without an L2 runs the layer staged, a vast one
    // depth-first over per-worker tile blocks.
    for (schedule, l2_bytes) in [("staged", 0), ("chained", 1 << 30)] {
        for threads in [1, 3] {
            let mut ctx = ConvContext::new(threads);
            ctx.cache = CacheModel { l2_bytes, ..ctx.cache };
            // Warm-up: the first execute on this shape grows the arenas.
            conv.execute(&img, &mut out, &mut ctx).unwrap();

            let before = ctx.pool.fork_joins();
            let allocs = audit.count(|| {
                for _ in 0..3 {
                    conv.execute(&img, &mut out, &mut ctx).unwrap();
                }
            });
            assert_eq!(
                ctx.pool.fork_joins() - before,
                3,
                "each {schedule} execute must be exactly one fork-join (threads={threads})"
            );
            assert_eq!(
                allocs, 0,
                "steady-state {schedule} execute must not touch the heap (threads={threads})"
            );
        }
    }
}

/// The pipelined GEMM under dynamic scheduling: a blocking override small
/// enough to force several `(K_blk, C_blk)` cache blocks per task makes the
/// two `PanelScratch` packing slots actually cycle, and multiple threads
/// engage the bounded work-stealing pop path — both must stay allocation-
/// free once the warm-up execute has grown the arenas (steal queues are
/// re-seeded in place, packs are straight copies into the resident slots).
#[test]
fn pipelined_multi_block_steady_state_allocates_nothing() {
    let audit = audit();
    use lowino_gemm::Blocking;
    let spec = ConvShape::same(1, 70, 130, 11, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let wino = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    // C_p = 128, K_p = 192 → 2 C-blocks × 3 K-blocks = 6 packed blocks per
    // task: the double-buffer alternates through five hand-offs.
    let blocking = Blocking { n_blk: 8, c_blk: 64, k_blk: 64, row_blk: 4, col_blk: 2 };

    let mut lowino = LoWinoConv::new(spec, 4, &weights, wino).unwrap();
    lowino.set_blocking(blocking);
    let mut downscale = DownScaleConv::new(spec, 4, &weights, spatial).unwrap();
    downscale.set_blocking(blocking);
    let mut executors: Vec<(&str, Box<dyn ConvExecutor>)> = vec![
        ("lowino", Box::new(lowino)),
        ("downscale", Box::new(downscale)),
    ];

    let mut out = BlockedImage::zeros(1, 130, 11, 11);
    for threads in [1, 3] {
        let mut ctx = ConvContext::new(threads);
        // No L2: LoWino stays on the staged schedule, whose GEMM phase is
        // the pipelined driver under audit here.
        ctx.cache = CacheModel { l2_bytes: 0, ..ctx.cache };
        for (name, exec) in &mut executors {
            exec.execute(&img, &mut out, &mut ctx).unwrap();
            let allocs = audit.count(|| {
                for _ in 0..2 {
                    exec.execute(&img, &mut out, &mut ctx).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "{name}: pipelined steady state must not touch the heap (threads={threads})"
            );
        }
    }
}

/// Autotuner 2.0 extension of the zero-alloc invariant: the `Background`
/// lookup path (published-table probe + hot-shape counter bump) and a
/// published-winner hit must both stay heap-free in steady state — the
/// retuner's whole point is free swaps, not per-execute overhead. The
/// runtime is built without a thread (`retune: None`) so the counting
/// allocator, which counts every thread's allocations, sees only the
/// execute path; a winner is published by hand to exercise the table hit.
#[test]
fn background_lookup_and_published_hit_stay_allocation_free() {
    let audit = audit();
    use lowino_gemm::{GemmShape, TunePolicy, Wisdom};
    use lowino_simd::SimdTier;

    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
    let mut out = BlockedImage::zeros(2, 16, 12, 12);

    let tier = SimdTier::detect();
    let mut ctx =
        ConvContext::with_tuning(2, tier, TunePolicy::Background, Wisdom::new(), None);
    let geom = spec.tiles(4).unwrap();
    let shape = GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c };

    // Warm-up: grows the arenas AND inserts the shape's hot-counter entry
    // (the only allocation the note path ever performs).
    conv.execute(&img, &mut out, &mut ctx).unwrap();

    // Steady state on the cost-model-seed path (nothing published yet).
    let allocs = audit.count(|| {
        for _ in 0..3 {
            conv.execute(&img, &mut out, &mut ctx).unwrap();
        }
    });
    assert_eq!(allocs, 0, "Background lookup+note path must not touch the heap");

    // Publish a winner (as the retuner would) and hit the table instead.
    ctx.tune
        .shared()
        .publish(tier, &shape, lowino_gemm::Blocking::default_for(&shape));
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    let allocs = audit.count(|| {
        for _ in 0..3 {
            conv.execute(&img, &mut out, &mut ctx).unwrap();
        }
    });
    assert_eq!(allocs, 0, "published-winner hit must not touch the heap");
}

#[test]
fn every_executor_is_one_fork_join_per_execute() {
    let audit = audit();
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    let wino = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();

    let mut executors: Vec<(&str, Box<dyn ConvExecutor>)> = vec![
        (
            "lowino",
            Box::new(LoWinoConv::new(spec, 2, &weights, wino).unwrap()),
        ),
        (
            "wino_f32",
            Box::new(WinogradF32Conv::new(spec, 2, &weights).unwrap()),
        ),
        (
            "downscale",
            Box::new(DownScaleConv::new(spec, 2, &weights, spatial).unwrap()),
        ),
        (
            "upcast",
            Box::new(UpCastConv::new(spec, 2, &weights, spatial).unwrap()),
        ),
        (
            "direct_i8",
            Box::new(DirectInt8Conv::new(spec, &weights, spatial).unwrap()),
        ),
    ];

    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    for (name, exec) in &mut executors {
        let before = ctx.pool.fork_joins();
        exec.execute(&img, &mut out, &mut ctx).unwrap();
        assert_eq!(
            ctx.pool.fork_joins() - before,
            1,
            "{name}: execute must issue exactly one pool fork-join"
        );
        // That execute grew the arenas; the next one must not allocate.
        let allocs = audit.count(|| {
            exec.execute(&img, &mut out, &mut ctx).unwrap();
        });
        assert_eq!(allocs, 0, "{name}: steady-state execute must not touch the heap");
    }
}

#[test]
fn fused_lowino_matches_three_fork_join_bitwise() {
    let _audit = audit();
    // Ragged tiles, multiple channel blocks, both thread counts.
    let spec = ConvShape::same(1, 70, 66, 11, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    for threads in [1, 2, 4] {
        let mut fused = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        let mut legacy = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        let mut ctx = ConvContext::new(threads);
        let mut out_fused = BlockedImage::zeros(1, 66, 11, 11);
        let mut out_legacy = BlockedImage::zeros(1, 66, 11, 11);
        fused.execute(&img, &mut out_fused, &mut ctx).unwrap();
        legacy.execute_three_fork_join(&img, &mut out_legacy, &mut ctx);
        assert_eq!(
            out_fused.to_nchw().max_abs_diff(&out_legacy.to_nchw()),
            0.0,
            "fused vs three-fork-join mismatch at threads={threads}"
        );
    }
}
