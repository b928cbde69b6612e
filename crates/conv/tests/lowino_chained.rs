//! LoWino's depth-first schedule against the staged one and the reference.
//!
//! `LoWinoConv::execute` picks its schedule from the shapes and the
//! context's cache model: depth-first over L2-resident tile blocks
//! ("chained") where `U` plus one worker's `V`/`Z` blocks fit the L2 share,
//! the three staged phases otherwise. The tests pin the choice through the
//! machine description — a cache model with no L2 forces staged, one with a
//! vast L2 forces chained — and hold both to the retained
//! `execute_three_fork_join` (gather everything, interpreted codelets, own
//! panels) **bit for bit**: same per-lane arithmetic, so not one ulp apart.
//!
//! The `scratch/grow` fault site and the trace recorder are process-global,
//! so the two tests that arm or drain them take `EXCLUSIVE` for writing and
//! every other test of this binary takes it for reading.

use std::sync::RwLock;
use std::time::Instant;

use lowino_conv::algo::lowino::chain_block;
use lowino_conv::calibrate::calibrate_winograd_domain_per_position;
use lowino_conv::{
    apply_post_ops, calibrate_winograd_domain, ConvContext, ConvExecutor, ConvPostOps, ExecError,
    LoWinoConv,
};
use lowino_gemm::{CacheModel, GemmShape};
use lowino_quant::{count_saturated_u8, QParams};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};
use lowino_testkit::faults::SCRATCH_GROW;
use lowino_testkit::Rng;

static EXCLUSIVE: RwLock<()> = RwLock::new(());

fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    EXCLUSIVE.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    EXCLUSIVE.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// No L2 at all: nothing fits, every layer runs staged.
const NO_L2: CacheModel = CacheModel { l1_bytes: 32 << 10, l2_bytes: 0 };
/// An L2 no test layer can fill: every layer runs chained.
const VAST_L2: CacheModel = CacheModel { l1_bytes: 32 << 10, l2_bytes: 1 << 30 };

fn context(threads: usize, cache: CacheModel) -> ConvContext {
    let mut ctx = ConvContext::new(threads);
    ctx.cache = cache;
    ctx
}

fn bits(img: &BlockedImage) -> Vec<u32> {
    img.data().iter().map(|v| v.to_bits()).collect()
}

fn random_image(rng: &mut Rng, b: usize, c: usize, h: usize, w: usize, amp: f32) -> BlockedImage {
    let mut t = Tensor4::zeros(b, c, h, w);
    rng.fill_f32(t.data_mut(), -amp, amp);
    BlockedImage::from_nchw(&t)
}

fn random_weights(rng: &mut Rng, spec: &ConvShape) -> Tensor4 {
    let mut w = Tensor4::zeros(spec.out_c, spec.in_c, spec.r, spec.r);
    rng.fill_f32(w.data_mut(), -0.3, 0.3);
    w
}

/// Per-tensor or per-position Winograd-domain scales.
enum Scales {
    Tensor(QParams),
    Position(Vec<QParams>),
}

impl Scales {
    fn calibrate(per_position: bool, spec: &ConvShape, m: usize, img: &BlockedImage) -> Self {
        let samples = std::slice::from_ref(img);
        if per_position {
            Self::Position(calibrate_winograd_domain_per_position(spec, m, samples).unwrap())
        } else {
            Self::Tensor(calibrate_winograd_domain(spec, m, samples).unwrap())
        }
    }

    fn plan(&self, spec: ConvShape, m: usize, weights: &Tensor4) -> LoWinoConv {
        match self {
            Self::Tensor(q) => LoWinoConv::new(spec, m, weights, *q).unwrap(),
            Self::Position(q) => LoWinoConv::new_per_position(spec, m, weights, q).unwrap(),
        }
    }
}

/// `(what, spec)` for tile size `m`, covering every way a tile can meet the
/// image edge and a block can meet the end of the tile list. The block
/// size under `VAST_L2` is `max(⌈N/(4·threads)⌉, 2·row_blk)` rounded down
/// to `row_blk`s, so with `N` = 2 … 27 tiles there are layers smaller than
/// one block, layers that end in a short block, and — at batch > 1, nine
/// tiles an image — blocks that straddle two images.
fn shapes(m: usize) -> Vec<(&'static str, ConvShape)> {
    let unpadded = |b, c, k, hw| ConvShape { batch: b, in_c: c, out_c: k, h: hw, w: hw, r: 3, stride: 1, pad: 0 };
    vec![
        ("all interior (pad 0, H' = 2m)", unpadded(2, 8, 16, 2 * m + 2)),
        ("all border (H' < m): nb > N", ConvShape::same(2, 8, 8, m - 1, 3)),
        ("ragged (H' = 2m + 3), batch 3: blocks straddle images", ConvShape::same(3, 8, 16, 2 * m + 3, 3)),
        ("pad 0 and ragged", unpadded(1, 8, 8, 3 * m + 1)),
        ("C and K off the 64-lane grid", ConvShape::same(1, 70, 66, 2 * m + 1, 3)),
        ("interior core, halo ring (H' = 3m)", ConvShape::same(1, 16, 8, 3 * m, 3)),
    ]
}

#[test]
fn chained_staged_and_three_fork_join_agree_bitwise() {
    let _shared = shared();
    let mut rng = Rng::seed_from_u64(0xC4A1_2ED0);
    let mut chained_short_block = false;
    let mut chained_oversized_block = false;
    for m in [2, 4, 6] {
        for (what, spec) in shapes(m) {
            let spec = spec.validate().unwrap();
            let (oh, ow) = (spec.out_h(), spec.out_w());
            let img = random_image(&mut rng, spec.batch, spec.in_c, spec.h, spec.w, 2.0);
            let weights = random_weights(&mut rng, &spec);
            let res = random_image(&mut rng, spec.batch, spec.out_c, oh, ow, 1.0);
            let mut bias = vec![0.0f32; res.c_blocks() * LANES];
            rng.fill_f32(&mut bias[..spec.out_c], -0.5, 0.5);
            for per_position in [false, true] {
                let scales = Scales::calibrate(per_position, &spec, m, &img);
                // Reference: gather → interpreted transforms → scatter, then
                // the elementwise post-op pass.
                let mut want_plain = BlockedImage::zeros(spec.batch, spec.out_c, oh, ow);
                scales.plan(spec, m, &weights).execute_three_fork_join(
                    &img,
                    &mut want_plain,
                    &mut context(1, NO_L2),
                );
                for threads in [1, 2, 3] {
                    let mut staged = scales.plan(spec, m, &weights);
                    let mut chained = scales.plan(spec, m, &weights);
                    let mut ctx_staged = context(threads, NO_L2);
                    let mut ctx_chained = context(threads, VAST_L2);
                    for combo in 0..8 {
                        let (use_bias, use_res, relu) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
                        let post = ConvPostOps {
                            bias: use_bias.then_some(bias.as_slice()),
                            residual: use_res.then_some(&res),
                            relu,
                        };
                        let mut want = want_plain.clone();
                        apply_post_ops(&mut want, &post);
                        let case = format!(
                            "{what}: m={m} per_position={per_position} threads={threads} \
                             bias={use_bias} res={use_res} relu={relu}"
                        );
                        // Stale contents: every output element must be overwritten.
                        let mut got = random_image(&mut rng, spec.batch, spec.out_c, oh, ow, 9.0);
                        staged.execute_post(&img, &mut got, &post, &mut ctx_staged).unwrap();
                        assert!(bits(&got) == bits(&want), "staged, {case}");
                        let mut got = random_image(&mut rng, spec.batch, spec.out_c, oh, ow, 9.0);
                        chained.execute_post(&img, &mut got, &post, &mut ctx_chained).unwrap();
                        assert!(bits(&got) == bits(&want), "chained, {case}");
                    }
                    // The cache model, not a switch, chose: the staged layer
                    // owns whole-layer panels, the chained one never did.
                    assert!(staged.v_panel().is_some(), "{what}: NO_L2 must run staged");
                    assert!(chained.v_panel().is_none(), "{what}: VAST_L2 must run chained");
                    assert_eq!(staged.saturation(), chained.saturation(), "{what}");
                    let shape = chained.gemm_shape();
                    let blocking = ctx_chained.seed_blocking(&shape);
                    let row_blk = lowino_gemm::normalize_for(&blocking, &shape).row_blk;
                    let nb = chain_block(&shape, row_blk, threads, VAST_L2.l2_bytes).unwrap();
                    chained_short_block |= shape.n > nb && !shape.n.is_multiple_of(nb);
                    chained_oversized_block |= nb > shape.n;
                }
            }
        }
    }
    assert!(chained_short_block, "no case ended in a short block");
    assert!(chained_oversized_block, "no case had a block larger than the layer");
}

#[test]
fn blocking_override_with_c_chunks_is_equivalent_in_both_schedules() {
    // `c_blk` below `C_p` makes the staged GEMM hand partial sums from one
    // C chunk to the next; the chained one keeps its own full-depth walk and
    // takes only the register tile.
    let _shared = shared();
    let mut rng = Rng::seed_from_u64(0xB10C);
    let spec = ConvShape::same(1, 70, 130, 11, 3).validate().unwrap();
    let img = random_image(&mut rng, 1, 70, 11, 11, 1.5);
    let weights = random_weights(&mut rng, &spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut want = BlockedImage::zeros(1, 130, 11, 11);
    LoWinoConv::new(spec, 4, &weights, cal)
        .unwrap()
        .execute_three_fork_join(&img, &mut want, &mut context(1, NO_L2));
    for cache in [NO_L2, VAST_L2] {
        let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        conv.set_blocking(lowino_gemm::Blocking { n_blk: 4, c_blk: 16, k_blk: 64, row_blk: 3, col_blk: 2 });
        let mut got = BlockedImage::zeros(1, 130, 11, 11);
        conv.execute(&img, &mut got, &mut context(2, cache)).unwrap();
        assert!(bits(&got) == bits(&want), "l2_bytes={}", cache.l2_bytes);
    }
}

#[test]
fn saturation_is_counted_in_the_sink_and_equals_a_panel_scan() {
    let _shared = shared();
    let mut rng = Rng::seed_from_u64(0x5A7);
    let spec = ConvShape::same(2, 70, 16, 13, 3).validate().unwrap();
    // Calibrate on a quiet sample, execute on one three times as loud:
    // some lanes clamp, most do not.
    let quiet = random_image(&mut rng, 2, 70, 13, 13, 1.0);
    let loud = random_image(&mut rng, 2, 70, 13, 13, 3.0);
    let weights = random_weights(&mut rng, &spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&quiet)).unwrap();
    let mut out = BlockedImage::zeros(2, 16, 13, 13);
    for threads in [1, 3] {
        let mut staged = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        assert_eq!(staged.saturation().unwrap().0, 0, "nothing executed yet");
        staged.execute(&loud, &mut out, &mut context(threads, NO_L2)).unwrap();
        let panel = staged.v_panel().expect("staged layers own a V panel");
        let (t_count, n, c, _) = panel.dims();
        let mut scanned = 0u64;
        for t in 0..t_count {
            for tile in 0..n {
                scanned += count_saturated_u8(panel.row(t, tile));
            }
        }
        let total = (t_count * n * c) as u64;
        assert!(scanned > 0 && scanned < total / 2, "{scanned} of {total} saturated");
        assert_eq!(staged.saturation(), Some((scanned, total)), "staged, threads={threads}");

        let mut chained = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        chained.execute(&loud, &mut out, &mut context(threads, VAST_L2)).unwrap();
        assert!(chained.v_panel().is_none());
        assert_eq!(chained.saturation(), Some((scanned, total)), "chained, threads={threads}");
        // Per execute, not cumulative.
        chained.execute(&quiet, &mut out, &mut context(threads, VAST_L2)).unwrap();
        assert!(chained.saturation().unwrap().0 < scanned);

        let mut reference = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        reference.execute_three_fork_join(&loud, &mut out, &mut context(threads, NO_L2));
        assert_eq!(reference.saturation(), Some((scanned, total)), "three fork-joins");
    }
}

/// Table 2 layers under F(4,3) (`T` = 36) and F(2,3) (`T` = 16).
fn f43(batch: usize, c: usize, k: usize, hw: usize) -> GemmShape {
    GemmShape { t: 36, n: batch * hw.div_ceil(4) * hw.div_ceil(4), c, k }
}

#[test]
fn chain_rule_table() {
    const L2: usize = 2 << 20;
    let chains = |shape: &GemmShape, l2: usize| {
        // Whatever register tile the tuner picked must not flip a layer
        // that is far from the boundary.
        let picks: Vec<Option<usize>> = (2..=8).map(|row_blk| chain_block(shape, row_blk, 2, l2)).collect();
        assert!(
            picks.iter().all(Option::is_some) || picks.iter().all(Option::is_none),
            "{shape:?} sits on the boundary at l2={l2}: {picks:?}"
        );
        picks[0].is_some()
    };
    // The `conv_wide` shapes: `U` is 0.3–0.9 MB and sits in a 2 MiB L2.
    let wide = [
        ("FusionNet_a(hw/2)", f43(1, 128, 128, 160)),
        ("U-Net_a(hw/2)", f43(1, 128, 128, 141)),
        ("YOLOv3_a", f43(1, 64, 128, 64)),
        ("ResNet-50_a/16", f43(4, 128, 128, 28)),
        ("GoogLeNet_a/16", f43(4, 128, 192, 28)),
        ("FusionNet_a", f43(1, 128, 128, 320)),
        ("U-Net_a", f43(1, 128, 128, 282)),
        ("ResNet-50_a", f43(64, 128, 128, 28)),
        ("GoogLeNet_a", f43(64, 128, 192, 28)),
    ];
    for (name, shape) in &wide {
        assert!(chains(shape, L2), "{name} must chain at 2 MiB");
        assert!(!chains(shape, 0), "{name}: nothing chains without an L2");
    }
    // Every `conv_deep` shape and VGG16_b: `U` alone is 2.6–9.4 MB.
    let deep = [
        ("VGG16_b", f43(64, 512, 512, 30)),
        ("VGG16_b/32", f43(2, 512, 512, 30)),
        ("VGG16_c/16", f43(4, 512, 512, 16)),
        ("ResNet-50_c/4", f43(16, 512, 512, 7)),
        ("FusionNet_c(hw/2)", f43(1, 512, 512, 40)),
        ("U-Net_c", f43(1, 512, 512, 66)),
        ("YOLOv3_c", f43(1, 256, 512, 16)),
        ("GoogLeNet_c/4", f43(16, 192, 384, 7)),
        ("AlexNet_a/16", f43(4, 384, 384, 13)),
    ];
    for (name, shape) in &deep {
        assert!(!chains(shape, L2), "{name} must stay staged at 2 MiB");
        assert!(!chains(shape, 0), "{name}");
    }
    // The block itself: FusionNet_a(hw/2) with the 6-row register tile fits
    // 42 tiles beside its 590 KB `U` in ¾ of 2 MiB; the hard-coded 1 MiB
    // default would leave it staged.
    let fusion = &wide[0].1;
    assert_eq!(chain_block(fusion, 6, 2, L2), Some(42));
    assert_eq!(chain_block(fusion, 6, 2, 1 << 20), None);
    // Many threads shorten the block (about four a thread), never below two
    // register tiles; a vast L2 stops at the cap.
    assert_eq!(chain_block(fusion, 6, 16, L2), Some(24));
    assert_eq!(chain_block(fusion, 6, 64, L2), Some(12));
    assert_eq!(chain_block(&f43(64, 128, 128, 28), 6, 2, 1 << 30), Some(96));
    // A stem: 3 → 128 channels, F(2,3) on 4 × 32×32 — tiny `U`, chained.
    let stem = GemmShape { t: 16, n: 4 * 16 * 16, c: 3, k: 128 };
    assert!(chains(&stem, L2));
}

#[test]
fn chained_stage_timings_keep_the_fig10_split() {
    let _shared = shared();
    let mut rng = Rng::seed_from_u64(0x7131);
    let spec = ConvShape::same(2, 64, 64, 24, 3).validate().unwrap();
    let img = random_image(&mut rng, 2, 64, 24, 24, 1.0);
    let weights = random_weights(&mut rng, &spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut out = BlockedImage::zeros(2, 64, 24, 24);
    for threads in [1, 2] {
        let mut ctx = context(threads, VAST_L2);
        let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        let before = ctx.pool.fork_joins();
        let start = Instant::now();
        let t = conv.execute(&img, &mut out, &mut ctx).unwrap();
        let wall = start.elapsed();
        assert_eq!(ctx.pool.fork_joins() - before, 1, "one pool job per execute");
        assert!(conv.v_panel().is_none());
        for stage in [t.input_transform, t.gemm, t.output_transform] {
            assert!(stage > std::time::Duration::ZERO, "threads={threads}: {t:?}");
        }
        // Mean over workers of time spent inside the tasks: never more than
        // the wall time of the job that ran them.
        assert!(t.total() <= wall, "threads={threads}: {t:?} vs wall {wall:?}");
    }
}

#[test]
fn scratch_grow_fault_inside_a_chained_task_is_recoverable() {
    let _exclusive = exclusive();
    let mut rng = Rng::seed_from_u64(0xFA17);
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = random_image(&mut rng, 1, 8, 10, 10, 1.0);
    let weights = random_weights(&mut rng, &spec);
    let cal = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();
    let mut want = BlockedImage::zeros(1, 8, 10, 10);
    LoWinoConv::new(spec, 2, &weights, cal)
        .unwrap()
        .execute(&img, &mut want, &mut context(2, VAST_L2))
        .unwrap();

    // A fresh context: the first chained task has to grow its V and Z
    // blocks, and the third growth of the execute — a block buffer — fails.
    let mut conv = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
    let mut ctx = context(2, VAST_L2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    let hits = SCRATCH_GROW.hits();
    SCRATCH_GROW.arm_nth(3);
    let err = conv.execute(&img, &mut out, &mut ctx).unwrap_err();
    SCRATCH_GROW.disarm();
    match &err {
        ExecError::WorkerPanic { message } => {
            assert!(message.contains("injected fault: scratch/grow"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_eq!(SCRATCH_GROW.hits(), hits + 1);
    // Recovery: same executor, same pool, same arena.
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    assert!(conv.v_panel().is_none(), "the faulted layer still runs chained");
    assert!(bits(&out) == bits(&want), "retry after a scratch fault must match a clean run");
}

#[test]
fn traced_chained_run_carries_the_gemm_counters() {
    let _exclusive = exclusive();
    let mut rng = Rng::seed_from_u64(0x7ACE);
    let spec = ConvShape::same(1, 8, 16, 12, 3).validate().unwrap();
    let img = random_image(&mut rng, 1, 8, 12, 12, 1.0);
    let weights = random_weights(&mut rng, &spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
    let mut ctx = context(2, VAST_L2);
    let mut out = BlockedImage::zeros(1, 16, 12, 12);
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    lowino_trace::reset();
    lowino_trace::set_enabled(true);
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    let threads = lowino_trace::drain();
    lowino_trace::set_enabled(false);
    lowino_trace::reset();
    let sum = |name: &str| -> u64 {
        threads
            .iter()
            .flat_map(|th| th.events.iter())
            .filter(|e| e.name == name)
            .map(|e| e.arg)
            .sum()
    };
    // 9 tiles × 36 positions × 8 channels × 64 padded output channels.
    let shape = conv.gemm_shape();
    assert_eq!(sum("gemm/dpbusd_macs"), shape.macs());
    assert!(sum("gemm/panel_bytes") > 0);
    assert_eq!(sum("quant/values"), (shape.t * shape.n * LANES) as u64);
    // One span per task range; the Fig. 10 split rides along as counters.
    assert!(threads.iter().flat_map(|th| th.events.iter()).any(|e| e.name == "lowino/chain"));
    for stage in ["lowino/input_transform_ns", "lowino/gemm_ns", "lowino/output_transform_ns"] {
        assert!(sum(stage) > 0, "missing {stage}");
    }
}
