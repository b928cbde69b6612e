//! The non-finite tally against a scan of the output.
//!
//! Every executor counts the NaN / ±inf values it stores while they are
//! still in registers or L1 (`ConvExecutor::non_finite`), and the resilient
//! ladder's output-finiteness guard reads that count instead of scanning the
//! output. The guard is only as strong as the tally, so here the tally must
//! equal `output.data().iter().filter(|v| !v.is_finite()).count()` — the
//! whole buffer, channel padding included — for every Winograd scheme in
//! both schedules and both direct executors, on random shapes with ragged
//! edges and `out_c` off the 64-lane grid, with inputs, bias lanes and
//! residual pixels poisoned, with and without ReLU.

use lowino_conv::calibrate::calibrate_winograd_domain_per_position;
use lowino_conv::{
    calibrate_spatial, calibrate_winograd_domain, ConvContext, ConvExecutor, ConvPostOps, DirectF32Conv,
    DirectInt8Conv, DownScaleConv, LoWinoConv, UpCastConv, WinogradF32Conv,
};
use lowino_gemm::CacheModel;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};
use lowino_testkit::{property, Rng};

/// No L2 at all: every Winograd layer runs staged.
const NO_L2: CacheModel = CacheModel { l1_bytes: 32 << 10, l2_bytes: 0 };
/// An L2 no test layer can fill: every scheme without a pre-pass chains.
const VAST_L2: CacheModel = CacheModel { l1_bytes: 32 << 10, l2_bytes: 1 << 30 };

const POISONS: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

fn scan(out: &BlockedImage) -> u64 {
    out.data().iter().filter(|v| !v.is_finite()).count() as u64
}

fn random_nchw(rng: &mut Rng, b: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    let mut t = Tensor4::zeros(b, c, h, w);
    rng.fill_f32(t.data_mut(), -1.5, 1.5);
    t
}

/// Every executor under test for `F(m×m, 3×3)` on `spec`, calibrated on the
/// clean `sample`: the five Winograd schemes (LoWino at both scale
/// granularities) and the two direct convolutions.
fn executors(spec: ConvShape, m: usize, w: &Tensor4, sample: &BlockedImage) -> Vec<(&'static str, Box<dyn ConvExecutor>)> {
    let samples = std::slice::from_ref(sample);
    let spatial = calibrate_spatial(samples).unwrap();
    let tensor = calibrate_winograd_domain(&spec, m, samples).unwrap();
    let position = calibrate_winograd_domain_per_position(&spec, m, samples).unwrap();
    vec![
        ("lowino", Box::new(LoWinoConv::new(spec, m, w, tensor).unwrap())),
        ("lowino/position", Box::new(LoWinoConv::new_per_position(spec, m, w, &position).unwrap())),
        ("downscale", Box::new(DownScaleConv::new(spec, m, w, spatial).unwrap())),
        // INT16 cannot hold F(6,3)'s transform growth.
        ("upcast", Box::new(UpCastConv::new(spec, m.min(4), w, spatial).unwrap())),
        ("winograd-f32", Box::new(WinogradF32Conv::new(spec, m, w).unwrap())),
        ("direct-int8", Box::new(DirectInt8Conv::new(spec, w, spatial).unwrap())),
        ("direct-f32", Box::new(DirectF32Conv::new(spec, w).unwrap())),
    ]
}

/// Run every executor in both schedules on `spec` with poisoned operands
/// and compare the tally with a scan after each execute.
fn check(spec: ConvShape, m: usize, threads: usize, seed: u64) -> Result<(), String> {
    let spec = spec.validate().map_err(|e| e.to_string())?;
    let (oh, ow) = (spec.out_h(), spec.out_w());
    let mut rng = Rng::seed_from_u64(seed);
    let clean = BlockedImage::from_nchw(&random_nchw(&mut rng, spec.batch, spec.in_c, spec.h, spec.w));
    let mut w = Tensor4::zeros(spec.out_c, spec.in_c, 3, 3);
    rng.fill_f32(w.data_mut(), -0.4, 0.4);

    // One poisoned input value.
    let mut poisoned = random_nchw(&mut rng, spec.batch, spec.in_c, spec.h, spec.w);
    let at = rng.range_usize(0, poisoned.len());
    poisoned.data_mut()[at] = *rng.choose(&POISONS);
    let poisoned = BlockedImage::from_nchw(&poisoned);

    // Two poisoned bias lanes among the real channels, and one padding lane
    // when there is one: every stored lane counts.
    let k_blocks = spec.out_c.div_ceil(LANES);
    let mut bias = vec![0.0f32; k_blocks * LANES];
    rng.fill_f32(&mut bias[..spec.out_c], -0.5, 0.5);
    for _ in 0..2 {
        bias[rng.range_usize(0, spec.out_c)] = *rng.choose(&POISONS);
    }
    if spec.out_c % LANES != 0 {
        bias[rng.range_usize(spec.out_c, k_blocks * LANES)] = f32::NAN;
    }

    // Two poisoned residual values, plus one at the last pixel — a clipped
    // corner of a ragged tile wherever H' or W' is not a multiple of m.
    let mut res = random_nchw(&mut rng, spec.batch, spec.out_c, oh, ow);
    for _ in 0..2 {
        let at = rng.range_usize(0, res.len());
        res.data_mut()[at] = *rng.choose(&POISONS);
    }
    *res.at_mut(spec.batch - 1, spec.out_c - 1, oh - 1, ow - 1) = f32::NAN;
    let res = BlockedImage::from_nchw(&res);

    for cache in [NO_L2, VAST_L2] {
        let mut ctx = ConvContext::new(threads);
        ctx.cache = cache;
        for (name, mut conv) in executors(spec, m, &w, &clean) {
            for relu in [false, true] {
                let cases = [
                    ("plain", &poisoned, ConvPostOps { relu, ..ConvPostOps::default() }),
                    ("post", &poisoned, ConvPostOps { bias: Some(&bias), residual: Some(&res), relu }),
                    // Clean operands: the tally is per execute, not cumulative.
                    ("clean", &clean, ConvPostOps { relu, ..ConvPostOps::default() }),
                ];
                for (what, input, post) in cases {
                    // Stale NaNs: a lane the executor failed to store shows
                    // in the scan and not in the tally.
                    let mut out = BlockedImage::zeros(spec.batch, spec.out_c, oh, ow);
                    out.data_mut().fill(f32::NAN);
                    conv.execute_post(input, &mut out, &post, &mut ctx).map_err(|e| e.to_string())?;
                    let (tally, scanned) = (conv.non_finite(), scan(&out));
                    // The residual's corner NaN survives every executor
                    // when no ReLU clears it.
                    if what == "post" && !relu && scanned == 0 {
                        return Err(format!("{name} F({m},3): the poisoned residual left no trace"));
                    }
                    if tally != scanned {
                        return Err(format!(
                            "{name} F({m},3) l2={} threads={threads} {what} relu={relu}: tally {tally} != scan {scanned}",
                            cache.l2_bytes
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn tally_equals_a_scan_on_a_ragged_layer_off_the_lane_grid() {
    // H' = 11 is ragged for every m; C = 70 and K = 66 cross a channel block.
    for m in [2, 4, 6] {
        check(ConvShape::same(2, 70, 66, 11, 3), m, 2, 0x7A11 + m as u64).unwrap();
    }
}

property! {
    /// Random layers: batched, unpadded or padded, non-square, with channel
    /// counts on either side of the 64-lane block.
    #[cases(12)]
    fn tally_equals_a_scan_on_random_layers(
        batch in 1usize..3,
        in_c in 1usize..80,
        out_c in 1usize..140,
        h in 4usize..14,
        w in 4usize..14,
        pad in 0usize..2,
        m_at in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let spec = ConvShape { batch, in_c, out_c, h, w, r: 3, stride: 1, pad };
        check(spec, [2, 4, 6][m_at], 1 + seed as usize % 3, seed)?;
    }
}
