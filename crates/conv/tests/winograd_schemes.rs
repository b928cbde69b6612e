//! The scheme battery: LoWino, DownScale, UpCast and WinogradF32 are four
//! schemes of one staged Winograd executor, and this is the one test binary
//! that holds all of them to the same bars.
//!
//! * **Pinned outputs.** A 64-bit hash of every scheme's output bits on a
//!   fixed set of layers was recorded at the commit *before* the executors
//!   were unified ([`PINNED`]); every scheme must still produce exactly
//!   those bits on every vector tier, thread count and GEMM blocking. The
//!   unification moved addresses (interior tiles read in place, full tiles
//!   stored straight into the output), never values.
//! * **Fused post-ops.** `execute_post` (bias / residual / ReLU riding the
//!   phase-③ row pass) equals `execute` followed by the scalar
//!   [`apply_post_ops`] pass, bit for bit, for every scheme.
//! * **Saturation.** What `saturation()` reports — tallied while the values
//!   are produced — equals a recount of the scheme's quantized panel/buffer.

use lowino_conv::calibrate::calibrate_winograd_domain_per_position;
use lowino_conv::{
    apply_post_ops, calibrate_spatial, calibrate_winograd_domain, ConvContext, ConvError,
    ConvExecutor, ConvPostOps, DownScaleConv, LoWinoConv, UpCastConv, WinogradF32Conv,
};
use lowino_gemm::{Blocking, CacheModel, VPanel};
use lowino_quant::{count_saturated_i8, count_saturated_u8};
use lowino_simd::SimdTier;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};

/// The schemes under test (LoWino at both scale granularities).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    LoWinoTensor,
    LoWinoPosition,
    DownScale,
    UpCast,
    WinogradF32,
}

const KINDS: [Kind; 5] = [
    Kind::LoWinoTensor,
    Kind::LoWinoPosition,
    Kind::DownScale,
    Kind::UpCast,
    Kind::WinogradF32,
];

/// A small `k_blk = 64` / `row_blk = 2` blocking: several cache blocks and
/// register tiles even on the battery's small layers.
const SMALL_BLOCKING: Blocking = Blocking { n_blk: 4, c_blk: 16, k_blk: 64, row_blk: 2, col_blk: 1 };

/// The battery's layers: a small square one, a ragged one whose channels
/// cross the 64-lane block, a batched rectangular one, and an unpadded one.
fn shapes() -> Vec<(&'static str, ConvShape)> {
    let rect = ConvShape { h: 9, w: 13, ..ConvShape::same(2, 16, 16, 9, 3) };
    let unpadded = ConvShape { pad: 0, ..ConvShape::same(1, 8, 8, 10, 3) };
    vec![
        ("8->8 10x10", ConvShape::same(1, 8, 8, 10, 3)),
        ("70->66 11x11", ConvShape::same(1, 70, 66, 11, 3)),
        ("2x16->16 9x13", rect),
        ("8->8 10x10 pad0", unpadded),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.validate().unwrap()))
    .collect()
}

fn image(spec: &ConvShape) -> BlockedImage {
    BlockedImage::from_nchw(&Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
        ((b * 37 + c * 13 + y * 7 + x * 3) as f32 * 0.21).sin() * 1.25
    }))
}

fn weights(spec: &ConvShape) -> Tensor4 {
    Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
        ((k * 19 + c * 5 + y * 3 + x) as f32 * 0.47).cos() * 0.25
    })
}

/// Plan `kind` for `F(m×m, 3×3)` on `spec`, calibrated on `img`, with
/// `blocking` installed when given (else the first execute seeds one).
fn plan(
    kind: Kind,
    spec: ConvShape,
    m: usize,
    w: &Tensor4,
    img: &BlockedImage,
    blocking: Option<Blocking>,
) -> Result<Box<dyn ConvExecutor>, ConvError> {
    let samples = std::slice::from_ref(img);
    // `set_blocking` is called on the concrete type: DownScale's partition
    // cap yields only to its inherent setter, not to the planners' trait one.
    macro_rules! boxed {
        ($conv:expr) => {{
            let mut conv = $conv?;
            if let Some(b) = blocking {
                conv.set_blocking(b);
            }
            Ok(Box::new(conv))
        }};
    }
    match kind {
        Kind::LoWinoTensor => {
            boxed!(LoWinoConv::new(spec, m, w, calibrate_winograd_domain(&spec, m, samples)?))
        }
        Kind::LoWinoPosition => {
            let scales = calibrate_winograd_domain_per_position(&spec, m, samples)?;
            boxed!(LoWinoConv::new_per_position(spec, m, w, &scales))
        }
        Kind::DownScale => boxed!(DownScaleConv::new(spec, m, w, calibrate_spatial(samples)?)),
        Kind::UpCast => boxed!(UpCastConv::new(spec, m, w, calibrate_spatial(samples)?)),
        Kind::WinogradF32 => boxed!(WinogradF32Conv::new(spec, m, w)),
    }
}

/// FNV-1a over the output's f32 bit patterns (padding lanes included).
fn hash(out: &BlockedImage) -> u64 {
    out.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn zeros_for(spec: &ConvShape) -> BlockedImage {
    BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w())
}

/// Every (kind, m, layer) cell the battery runs, in [`PINNED`] order.
fn cells() -> Vec<(Kind, usize, &'static str, ConvShape)> {
    let mut cells = Vec::new();
    for kind in KINDS {
        for m in [2, 4, 6] {
            // INT16 cannot hold F(6,3)'s transform growth: the one cell a
            // scheme refuses (asserted below).
            if (kind, m) == (Kind::UpCast, 6) {
                continue;
            }
            for (name, spec) in shapes() {
                cells.push((kind, m, name, spec));
            }
        }
    }
    cells
}

/// Output hashes recorded at the parent commit (four separate executors,
/// gather-everything baselines), one per [`cells`] entry. Regenerate with
/// `cargo test -p lowino-conv --test winograd_schemes -- --ignored --nocapture`
/// only for a change that is *meant* to move output bits.
#[rustfmt::skip]
const PINNED: [u64; 56] = [
    0xb3a68d173e72a843, // LoWinoTensor F(2,3) 8->8 10x10
    0x03a5dcdfacad0e0a, // LoWinoTensor F(2,3) 70->66 11x11
    0xb75a7efa2013bece, // LoWinoTensor F(2,3) 2x16->16 9x13
    0xb63de275f6c9feaf, // LoWinoTensor F(2,3) 8->8 10x10 pad0
    0x6751f7aeaf95cc98, // LoWinoTensor F(4,3) 8->8 10x10
    0x8b9fc8bd661b3533, // LoWinoTensor F(4,3) 70->66 11x11
    0xf32ca7706ef82aa1, // LoWinoTensor F(4,3) 2x16->16 9x13
    0x49f0c898cfeb87c6, // LoWinoTensor F(4,3) 8->8 10x10 pad0
    0x9e6b8e113bbf97be, // LoWinoTensor F(6,3) 8->8 10x10
    0xaba0f473956b96c2, // LoWinoTensor F(6,3) 70->66 11x11
    0xfcb08867784050b1, // LoWinoTensor F(6,3) 2x16->16 9x13
    0xb608e1bf48c3f05d, // LoWinoTensor F(6,3) 8->8 10x10 pad0
    0x9f351740f4ec7469, // LoWinoPosition F(2,3) 8->8 10x10
    0x7629a5e02f1fb968, // LoWinoPosition F(2,3) 70->66 11x11
    0x213d114ca7accef6, // LoWinoPosition F(2,3) 2x16->16 9x13
    0xfe91cc6c6227c2e8, // LoWinoPosition F(2,3) 8->8 10x10 pad0
    0xf3ff8e63e06233b2, // LoWinoPosition F(4,3) 8->8 10x10
    0x71c90327bdddbee4, // LoWinoPosition F(4,3) 70->66 11x11
    0x54d31b10bbebcc7e, // LoWinoPosition F(4,3) 2x16->16 9x13
    0x98eb9c3b3e982d33, // LoWinoPosition F(4,3) 8->8 10x10 pad0
    0x0cd8acf5826777c6, // LoWinoPosition F(6,3) 8->8 10x10
    0x49905d1c8912f932, // LoWinoPosition F(6,3) 70->66 11x11
    0x5faa97a7c99d5e99, // LoWinoPosition F(6,3) 2x16->16 9x13
    0x818d16a315e80f4b, // LoWinoPosition F(6,3) 8->8 10x10 pad0
    0xb98763fdc4c25b62, // DownScale F(2,3) 8->8 10x10
    0x9929fc3e35eb4e1b, // DownScale F(2,3) 70->66 11x11
    0x067584d4fc9629e0, // DownScale F(2,3) 2x16->16 9x13
    0x3765067022782847, // DownScale F(2,3) 8->8 10x10 pad0
    0x584773051fe96bd6, // DownScale F(4,3) 8->8 10x10
    0xf06ddfbc2b66c5bf, // DownScale F(4,3) 70->66 11x11
    0x67fa5dbfa93e20d3, // DownScale F(4,3) 2x16->16 9x13
    0x0e3b5aa5f22e312e, // DownScale F(4,3) 8->8 10x10 pad0
    0xcdf261c7cd0e71a3, // DownScale F(6,3) 8->8 10x10
    0xbd7aadee9c63873f, // DownScale F(6,3) 70->66 11x11
    0xeee315eb3dc7b06f, // DownScale F(6,3) 2x16->16 9x13
    0xe59bf0ecd2424b76, // DownScale F(6,3) 8->8 10x10 pad0
    0x11e833740c8617c6, // UpCast F(2,3) 8->8 10x10
    0xe94b6ae41687acc8, // UpCast F(2,3) 70->66 11x11
    0xb87ad031fc4d2182, // UpCast F(2,3) 2x16->16 9x13
    0x978b02c7b47295ef, // UpCast F(2,3) 8->8 10x10 pad0
    0x3eca85a7b732dc1d, // UpCast F(4,3) 8->8 10x10
    0x92a2910a72d1eb48, // UpCast F(4,3) 70->66 11x11
    0x07acc6e6d1c44c7a, // UpCast F(4,3) 2x16->16 9x13
    0x0fd0369883c4ce7c, // UpCast F(4,3) 8->8 10x10 pad0
    0xe236a36114121b7a, // WinogradF32 F(2,3) 8->8 10x10
    0xcaa17bcad24e3489, // WinogradF32 F(2,3) 70->66 11x11
    0x4b3761d2ae494e48, // WinogradF32 F(2,3) 2x16->16 9x13
    0xb3806c6fc4d7e7e0, // WinogradF32 F(2,3) 8->8 10x10 pad0
    0xddcb10fe3e17ead1, // WinogradF32 F(4,3) 8->8 10x10
    0xbb263711560c2d4e, // WinogradF32 F(4,3) 70->66 11x11
    0x093b0d9a1c62d432, // WinogradF32 F(4,3) 2x16->16 9x13
    0xbb95babe07b52c41, // WinogradF32 F(4,3) 8->8 10x10 pad0
    0xaeb2a545ea30feb7, // WinogradF32 F(6,3) 8->8 10x10
    0x22aab3b695963764, // WinogradF32 F(6,3) 70->66 11x11
    0xdc0d288495802b80, // WinogradF32 F(6,3) 2x16->16 9x13
    0x88bcca539991e426, // WinogradF32 F(6,3) 8->8 10x10 pad0
];

#[test]
fn every_scheme_reproduces_the_pinned_parent_outputs() {
    let cells = cells();
    assert_eq!(cells.len(), PINNED.len());
    let mut contexts: Vec<ConvContext> = SimdTier::available()
        .into_iter()
        .flat_map(|tier| [1usize, 3].map(|threads| ConvContext::with_tier(threads, tier)))
        .collect();
    for ((kind, m, name, spec), want) in cells.into_iter().zip(PINNED) {
        let (w, img) = (weights(&spec), image(&spec));
        for blocking in [None, Some(SMALL_BLOCKING)] {
            let mut conv = plan(kind, spec, m, &w, &img, blocking).unwrap();
            for ctx in &mut contexts {
                // Poisoned, so a tile the executor failed to write shows.
                let mut out = zeros_for(&spec);
                out.data_mut().fill(f32::NAN);
                conv.execute(&img, &mut out, ctx).unwrap();
                assert_eq!(
                    hash(&out),
                    want,
                    "{kind:?} F({m},3) {name}: tier {} threads {} blocking {blocking:?}",
                    ctx.tier,
                    ctx.threads()
                );
            }
        }
    }
}

#[test]
fn upcast_still_refuses_f6() {
    let spec = shapes()[0].1;
    let err = plan(Kind::UpCast, spec, 6, &weights(&spec), &image(&spec), None).err();
    assert!(matches!(err, Some(ConvError::Unsupported(_))), "{err:?}");
}

/// Prints the [`PINNED`] table for the current tree.
#[test]
#[ignore = "regenerates the pinned table; run by hand"]
fn print_pinned_table() {
    let mut ctx = ConvContext::new(1);
    for (kind, m, name, spec) in cells() {
        let (w, img) = (weights(&spec), image(&spec));
        let mut out = zeros_for(&spec);
        plan(kind, spec, m, &w, &img, None).unwrap().execute(&img, &mut out, &mut ctx).unwrap();
        println!("    {:#018x}, // {kind:?} F({m},3) {name}", hash(&out));
    }
}

#[test]
fn fused_post_ops_match_unfused_oracle_bitwise_for_every_scheme() {
    // Ragged tiles (H' = 11, m = 4) and two output-channel groups, so both
    // the direct-store and the clipped-scatter paths carry post-ops.
    let spec = ConvShape::same(2, 8, 70, 11, 3).validate().unwrap();
    let (w, img) = (weights(&spec), image(&spec));
    let k_blocks = spec.out_c.div_ceil(LANES);
    let mut bias = vec![0.0f32; k_blocks * LANES];
    for (k, b) in bias.iter_mut().enumerate().take(spec.out_c) {
        *b = (k as f32 * 0.37).sin() - 0.2;
    }
    let res = BlockedImage::from_nchw(&Tensor4::from_fn(2, spec.out_c, 11, 11, |b, c, y, x| {
        ((b + c * 5 + y * 3 + x * 2) as f32 * 0.19).cos() * 0.8
    }));
    let mut ctx = ConvContext::new(2);
    for kind in KINDS {
        for m in [2, 4] {
            let mut conv = plan(kind, spec, m, &w, &img, None).unwrap();
            let mut plain = zeros_for(&spec);
            conv.execute(&img, &mut plain, &mut ctx).unwrap();
            for (use_bias, use_res, relu) in
                [(true, false, false), (false, true, false), (false, false, true), (true, true, true)]
            {
                let post = ConvPostOps {
                    bias: use_bias.then_some(bias.as_slice()),
                    residual: use_res.then_some(&res),
                    relu,
                };
                let mut fused = zeros_for(&spec);
                conv.execute_post(&img, &mut fused, &post, &mut ctx).unwrap();
                // Oracle: the plain output through the reference elementwise pass.
                let mut want = plain.clone();
                apply_post_ops(&mut want, &post);
                let bits = |img: &BlockedImage| img.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    bits(&fused) == bits(&want),
                    "{kind:?} F({m},3): bias={use_bias} res={use_res} relu={relu}"
                );
            }
        }
    }
}

/// Saturated values in a quantized `V` panel, recounted row by row.
fn scan(v: &VPanel) -> u64 {
    let (t, n, ..) = v.dims();
    (0..t).flat_map(|ti| (0..n).map(move |ni| (ti, ni))).map(|(ti, ni)| count_saturated_u8(v.row(ti, ni))).sum()
}

#[test]
fn saturation_is_tallied_where_values_are_produced_and_equals_a_recount() {
    // Calibrated on the quiet image, executed on one 40× louder: most
    // quantized values clip. Ragged tiles and a partial channel group, so
    // halo and padding (which never saturate) are in the recounted buffers.
    let spec = ConvShape::same(2, 70, 8, 11, 3).validate().unwrap();
    let (w, quiet) = (weights(&spec), image(&spec));
    let mut loud = quiet.clone();
    loud.data_mut().iter_mut().for_each(|v| *v *= 40.0);
    let samples = std::slice::from_ref(&quiet);
    let mut out = zeros_for(&spec);
    for threads in [1, 3] {
        let mut ctx = ConvContext::new(threads);
        // No L2: LoWino runs staged and leaves its V panel to recount.
        ctx.cache = CacheModel { l2_bytes: 0, ..ctx.cache };
        let geom = spec.tiles(4).unwrap();
        let v_total = (geom.t() * geom.total * spec.in_c) as u64;

        let cal = calibrate_winograd_domain(&spec, 4, samples).unwrap();
        let mut lowino = LoWinoConv::new(spec, 4, &w, cal).unwrap();
        let mut downscale = DownScaleConv::new(spec, 4, &w, calibrate_spatial(samples).unwrap()).unwrap();
        let mut upcast = UpCastConv::new(spec, 4, &w, calibrate_spatial(samples).unwrap()).unwrap();
        let mut wino_f32 = WinogradF32Conv::new(spec, 4, &w).unwrap();
        // Twice: the tally is per execute, not cumulative.
        for _ in 0..2 {
            lowino.execute(&loud, &mut out, &mut ctx).unwrap();
            let recount = scan(lowino.v_panel().unwrap());
            assert!(recount > v_total / 4, "LoWino: the loud input must clip ({recount}/{v_total})");
            assert_eq!(lowino.saturation(), Some((recount, v_total)), "LoWino threads={threads}");

            downscale.execute(&loud, &mut out, &mut ctx).unwrap();
            let recount = scan(downscale.v_panel().unwrap());
            assert!(recount > 0, "DownScale: the loud input must clip");
            assert_eq!(downscale.saturation(), Some((recount, v_total)), "DownScale threads={threads}");

            upcast.execute(&loud, &mut out, &mut ctx).unwrap();
            let recount = count_saturated_i8(upcast.quantized_input().unwrap());
            let total = (spec.batch * spec.in_c * spec.h * spec.w) as u64;
            assert!(recount > total / 4, "UpCast: the loud input must clip ({recount}/{total})");
            assert_eq!(upcast.saturation(), Some((recount, total)), "UpCast threads={threads}");

            wino_f32.execute(&loud, &mut out, &mut ctx).unwrap();
            assert_eq!(wino_f32.saturation(), None);
        }
        // The quiet input it was calibrated on barely clips.
        upcast.execute(&quiet, &mut out, &mut ctx).unwrap();
        let (sat, total) = upcast.saturation().unwrap();
        assert!(sat < total / 20, "UpCast on its calibration input: {sat}/{total}");
    }
}
