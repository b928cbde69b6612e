//! Steady-state execution audit for the single-fork-join executors:
//!
//! * after the first `execute` on a shape has grown the per-worker scratch
//!   arenas (and, for a staged LoWino layer, allocated its whole-layer
//!   panels), repeated executes perform **zero heap allocations** — on
//!   LoWino's staged and depth-first schedules alike;
//! * every Winograd scheme allocates its panels in its first staged execute
//!   and nothing in executes 2…5, and a depth-first one never allocates
//!   them;
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
use lowino_gemm::{Blocking, CacheModel};
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

/// The blocking rule on executors nobody seeded (everything built with
/// `LoWinoConv::new` / `DirectInt8Conv::new` directly): the first execute
/// resolves the blocking from its context — one `tune/seeded` instant — and
/// keeps it, so executes 2…N neither resolve again nor touch the heap; a
/// blocking handed over later is kept the same way.
#[test]
fn unseeded_executors_resolve_their_blocking_once_and_then_allocate_nothing() {
    let audit = audit();
    const N: usize = 5;
    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let wino = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    type Build<'a> = &'a dyn Fn() -> Box<dyn ConvExecutor>;
    let lowino: Build = &|| Box::new(LoWinoConv::new(spec, 4, &weights, wino).unwrap());
    let direct_i8: Build = &|| Box::new(DirectInt8Conv::new(spec, &weights, spatial).unwrap());
    // The two baselines on the same driver over other element types: their
    // output (f32 sums included) must not move with the blocking either.
    let upcast: Build = &|| Box::new(UpCastConv::new(spec, 4, &weights, spatial).unwrap());
    let wino_f32: Build = &|| Box::new(WinogradF32Conv::new(spec, 4, &weights).unwrap());
    let detected = CacheModel::detect();
    let cases = [
        ("lowino staged", CacheModel { l2_bytes: 0, ..detected }, lowino),
        ("lowino chained", CacheModel { l2_bytes: 1 << 30, ..detected }, lowino),
        ("direct_i8", detected, direct_i8),
        ("upcast", detected, upcast),
        ("wino_f32", detected, wino_f32),
    ];
    // `tune/seeded` instants of N traced executes.
    let seeded_in = |exec: &mut dyn ConvExecutor, ctx: &mut ConvContext, out: &mut BlockedImage| {
        lowino_trace::reset();
        lowino_trace::set_enabled(true);
        for _ in 0..N {
            exec.execute(&img, out, ctx).unwrap();
        }
        let threads = lowino_trace::drain();
        lowino_trace::set_enabled(false);
        lowino_trace::reset();
        threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == "tune/seeded")
            .count()
    };
    for (name, cache, build) in cases {
        let mut ctx = ConvContext::new(2);
        ctx.cache = cache;
        let mut out = BlockedImage::zeros(2, 16, 12, 12);

        let mut exec = build();
        assert_eq!(seeded_in(&mut *exec, &mut ctx, &mut out), 1, "{name}: one resolve in {N} executes");
        let want = out.clone();

        // Untraced, on a fresh executor: the first execute resolves (and
        // grows whatever the shape needs), the rest must not allocate.
        let mut exec = build();
        exec.execute(&img, &mut out, &mut ctx).unwrap();
        let allocs = audit.count(|| {
            for _ in 1..N {
                exec.execute(&img, &mut out, &mut ctx).unwrap();
            }
        });
        assert_eq!(allocs, 0, "{name}: executes 2..{N} must not touch the heap");

        // A blocking set afterwards replaces the resolved one and is never
        // resolved over; the output bits cannot depend on it.
        exec.set_blocking(Blocking { n_blk: 4, c_blk: 16, k_blk: 64, row_blk: 2, col_blk: 1 });
        assert_eq!(seeded_in(&mut *exec, &mut ctx, &mut out), 0, "{name}: a set blocking is kept");
        assert!(out.data() == want.data(), "{name}: output moved with the blocking");
    }
}

/// The four Winograd schemes are one executor: each allocates its
/// whole-layer `V`/`Z` panels in the first staged execute — none at plan
/// time — and executes 2…5 allocate nothing; a depth-first one never
/// allocates them.
#[test]
fn every_scheme_allocates_its_panels_in_the_first_execute_and_nothing_after() {
    let audit = audit();
    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let wino = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    let mut ctx = ConvContext::new(2);
    // No L2: LoWino runs staged like the baselines.
    ctx.cache = CacheModel { l2_bytes: 0, ..ctx.cache };
    let mut out = BlockedImage::zeros(2, 16, 12, 12);
    macro_rules! check {
        ($name:literal, $conv:expr) => {{
            let mut conv = $conv.unwrap();
            assert!(conv.v_panel().is_none(), "{}: panels before the first execute", $name);
            let first = audit.count(|| {
                conv.execute(&img, &mut out, &mut ctx).unwrap();
            });
            assert!(conv.v_panel().is_some() && first > 0, "{}: the first execute allocates", $name);
            let rest = audit.count(|| {
                for _ in 1..5 {
                    conv.execute(&img, &mut out, &mut ctx).unwrap();
                }
            });
            assert_eq!(rest, 0, "{}: executes 2..5 must not touch the heap", $name);
        }};
    }
    check!("lowino", LoWinoConv::new(spec, 4, &weights, wino));
    check!("downscale", DownScaleConv::new(spec, 4, &weights, spatial));
    check!("upcast", UpCastConv::new(spec, 4, &weights, spatial));
    check!("wino_f32", WinogradF32Conv::new(spec, 4, &weights));

    // WinogradF32 has no pre-pass, so where its `U` leaves room in the L2 it
    // runs depth-first like LoWino: it never allocates the staged panels,
    // and once its first execute has grown the per-worker blocks, executes
    // 2…5 allocate nothing.
    ctx.cache = CacheModel { l2_bytes: 1 << 30, ..ctx.cache };
    let mut conv = WinogradF32Conv::new(spec, 4, &weights).unwrap();
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    let rest = audit.count(|| {
        for _ in 1..5 {
            conv.execute(&img, &mut out, &mut ctx).unwrap();
        }
    });
    assert!(conv.v_panel().is_none(), "chained wino_f32: a depth-first layer owns no staged panels");
    assert_eq!(rest, 0, "chained wino_f32: executes 2..5 must not touch the heap");
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
