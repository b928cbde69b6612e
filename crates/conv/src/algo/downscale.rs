//! The down-scaling low-precision Winograd baseline (paper §2.3, Fig. 2b —
//! the oneDNN-style design), as a scheme of the one staged executor
//! ([`crate::algo::winograd`]).
//!
//! The input is quantized **in the spatial domain** (INT8) by the pre-pass,
//! so the tile *source* is the padded INT8 image; the tile is transformed
//! with the *integer* `Bᵀ`, and the row-pass *epilogue* squeezes the
//! amplified result back into INT8 by multiplying with `α = 1/growth` and
//! rounding — `1/4` for `F(2,3)`, `1/100` for `F(4,3)`, `~1/10⁴` for
//! `F(6,3)`. The rounding of the down-scaled values is the precision loss
//! (❷ in Fig. 2b) that makes large tiles unusable — reproduced in the
//! Table 3 / Fig. 9 experiments. ③'s prologue de-quantizes by the one
//! effective scale `α_in·α·α_U`.
//!
//! The oneDNN implementation additionally processes the input in small
//! partitions whose intermediates stay cache-resident, which caps its GEMM
//! block sizes (paper §5.3). We model that with a deliberately small cache
//! blocking (`N_blk`/`K_blk` of one L2-resident partition), fixed at plan
//! time in place of the tuner's seed, unless the caller overrides it.

use lowino_gemm::{Blocking, GemmShape, U8I8};
use lowino_quant::QParams;
use lowino_tensor::{ConvShape, Tensor4};
use lowino_winograd::range_growth_2d;

use crate::algo::lowino::lowino_filters;
use crate::algo::spatial::SpatialInt8;
use crate::algo::winograd::{plan_tiles, tile_extent, Scheme, WinogradConv};
use crate::algo::Algorithm;
use crate::error::ConvError;

/// The down-scaling scheme: INT8 tiles, transform-domain down-scale back to
/// u8, u8×i8 GEMM.
pub struct DownScale;

impl Scheme for DownScale {
    type Elem = U8I8;
    const SPANS: [&'static str; 4] = [
        "downscale/quantize_input",
        "downscale/input_transform",
        "downscale/gemm",
        "downscale/output_transform",
    ];
    /// The oneDNN-like partition cap stands in for the tuner — this scheme
    /// models oneDNN's design, so it is never cost-model seeded.
    const SEEDED: bool = false;

    fn algorithm(m: usize) -> Algorithm {
        Algorithm::DownScale { m }
    }
}

/// Down-scaling Winograd INT8 executor.
pub type DownScaleConv = WinogradConv<DownScale>;

impl DownScaleConv {
    /// Plan a down-scaling Winograd convolution. `input_scale` is the
    /// spatial-domain scale from [`crate::calibrate_spatial`].
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let (spec, geom, tt) = plan_tiles(spec, m)?;
        // Filters follow the same Winograd-domain max-abs path as LoWino
        // (weights are fully known offline; this matches oneDNN).
        let (u_panel, alpha_u) = lowino_filters(&spec, &geom, &tt, weights, false)?;
        let alpha_u = alpha_u[0];
        let alpha_ds = 1.0 / range_growth_2d(m, spec.r)? as f32;
        // Effective input scale is α_in·α_ds (the spatial scale times the
        // transform down-scale).
        let inv = 1.0 / (input_scale.alpha * alpha_ds * alpha_u.alpha);
        let spatial = SpatialInt8::new(&spec, tile_extent(&spec, &geom), input_scale.alpha, false);
        let mut conv =
            Self::assemble(spec, geom, tt, u_panel, Some(spatial), vec![alpha_ds; geom.t()], vec![inv]);
        conv.blocking = Some(onednn_like_blocking(&conv.gemm_shape()));
        Ok(conv)
    }
}

/// The cache-capped blocking modelling oneDNN's partition design (§5.3:
/// intermediates for one partition stay in cache, so blocks are small and
/// shrink as the tile size grows).
fn onednn_like_blocking(shape: &GemmShape) -> Blocking {
    let mut b = Blocking::default_for(shape);
    // One partition's V/U/Z intermediates (~T·part·C bytes) must stay
    // L2-resident (1 MB on Cascade Lake); larger tiles => smaller
    // partitions (2.25× more intermediate for F(4,3), paper §5.3).
    let budget = 1024 * 1024usize; // bytes of L2 for intermediates
    let per_row = shape.t * (lowino_tensor::round_up(shape.c, 64) + 4 * 64);
    b.n_blk = (budget / per_row.max(1)).clamp(8, 96);
    b.k_blk = 128;
    b.c_blk = b.c_blk.min(256);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::algo::ConvExecutor;
    use crate::calibrate::calibrate_spatial;
    use crate::context::ConvContext;
    use lowino_tensor::BlockedImage;

    fn run_case(spec: ConvShape, m: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 61 + c * 23 + y * 11 + x) as f32 * 0.19).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 7 + c * 3 + y + x) as f32 * 0.59).cos() * 0.25
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
        let mut conv = DownScaleConv::new(spec, m, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(1);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f2_is_usable() {
        // α = 1/4: mild extra loss, still usable (paper Table 3).
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 2);
        assert!(err < 0.08, "rel error {err}");
    }

    #[test]
    fn f4_degrades_severely() {
        // α = 1/100: the rounding destroys most of the signal — the Table 3
        // accuracy-collapse mechanism. The error must be far worse than
        // both its own F(2,3) variant and LoWino's F(4,3).
        let spec = ConvShape::same(1, 8, 8, 10, 3);
        let e2 = run_case(spec, 2);
        let e4 = run_case(spec, 4);
        assert!(e4 > 3.0 * e2, "e2={e2} e4={e4}");
        assert!(e4 > 0.10, "e4={e4} unexpectedly good");
    }

    #[test]
    fn down_scale_factors_match_paper() {
        let spec = ConvShape::same(1, 4, 4, 8, 3).validate().unwrap();
        let w = Tensor4::zeros(4, 4, 3, 3);
        let c2 = DownScaleConv::new(spec, 2, &w, QParams::UNIT).unwrap();
        assert!((c2.quant[0] - 0.25).abs() < 1e-9);
        let c4 = DownScaleConv::new(spec, 4, &w, QParams::UNIT).unwrap();
        assert!((c4.quant[0] - 0.01).abs() < 1e-9);
    }

    #[test]
    fn partition_blocking_is_smaller_for_larger_tiles() {
        let spec = ConvShape::same(1, 64, 64, 32, 3).validate().unwrap();
        let w = Tensor4::zeros(64, 64, 3, 3);
        let c2 = DownScaleConv::new(spec, 2, &w, QParams::UNIT).unwrap();
        let c4 = DownScaleConv::new(spec, 4, &w, QParams::UNIT).unwrap();
        assert!(
            c4.blocking.unwrap().n_blk <= c2.blocking.unwrap().n_blk,
            "F(4,3) partitions must not exceed F(2,3)'s"
        );
    }
}
