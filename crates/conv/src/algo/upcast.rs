//! The up-casting low-precision Winograd baseline (paper §2.3, Fig. 2a —
//! the ncnn-style design), as a scheme of the one staged executor
//! ([`crate::algo::winograd`]).
//!
//! The input is quantized in the spatial domain (INT8) by the pre-pass, so
//! the tile *source* is the padded INT8 image; the tile is transformed with
//! the integer `Bᵀ` **exactly** and the row-pass *epilogue* simply keeps the
//! result in a wider type (INT16) instead of squeezing it back to INT8. No
//! transform-domain precision is lost (❶ of Fig. 2a is lossless), but the
//! multiply stage must run on `vpdpwssd`, at half the per-instruction MAC
//! throughput of `vpdpbusd` — the performance cost the paper attributes to
//! this design. The only scales ③'s prologue removes are the spatial `α_in`
//! and the filter `α_U`.
//!
//! INT16 capacity bounds the tile size: the transform amplifies magnitudes
//! by `growth(m)`, so `growth(m)·127` must fit in i16 — true for `m ≤ 4`,
//! false for `m = 6`, which is exactly why ncnn only ships small tiles.

use lowino_quant::QParams;
use lowino_tensor::{ConvShape, Tensor4};
use lowino_winograd::range_growth_2d;

use crate::algo::winograd::{plan_tiles, Scheme, SpatialInt8, WinogradConv, I16};
use crate::algo::Algorithm;
use crate::error::ConvError;
use crate::filter::pack_filters_upcast;

/// The up-casting scheme: INT8 tiles, exact INT16 `V`, `vpdpwssd` GEMM.
pub struct UpCast;

impl Scheme for UpCast {
    type Elem = I16;
    const SPANS: [&'static str; 4] =
        ["upcast/quantize_input", "upcast/input_transform", "upcast/gemm", "upcast/output_transform"];

    fn algorithm(m: usize) -> Algorithm {
        Algorithm::UpCast { m }
    }
}

/// Up-casting Winograd INT16 executor.
pub type UpCastConv = WinogradConv<UpCast>;

impl UpCastConv {
    /// Plan an up-casting Winograd convolution. `input_scale` is the
    /// spatial-domain scale from [`crate::calibrate_spatial`].
    ///
    /// Fails with [`ConvError::Unsupported`] when the transform growth
    /// exceeds INT16 capacity (`m ≥ 6` for `r = 3`) — the same limitation
    /// as the production up-casting implementations.
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let growth = range_growth_2d(m, spec.r)?;
        if growth * 127.0 > f64::from(i16::MAX) {
            return Err(ConvError::Unsupported(format!(
                "up-casting F({m},{}) would overflow INT16: growth {growth:.0}× of ±127",
                spec.r
            )));
        }
        let (spec, geom, tt) = plan_tiles(spec, m)?;
        // What fits INT16 is far inside f32's exact range, so ① never needs the
        // interpreted integer codelets.
        debug_assert!(tt.input_exact_in_f32(127));
        let (u_panel, alpha_u) = pack_filters_upcast(&spec, &geom, &tt, weights)?;
        let inv = 1.0 / (input_scale.alpha * alpha_u.alpha);
        let spatial = SpatialInt8::new(&spec, &geom, &tt, input_scale.alpha);
        Ok(Self::assemble(spec, geom, tt, u_panel, Some(spatial), Vec::new(), vec![inv]))
    }
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
            ((b * 71 + c * 37 + y * 13 + x) as f32 * 0.27).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 5 + c * 3 + y * 2 + x) as f32 * 0.67).cos() * 0.3
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
        let mut conv = UpCastConv::new(spec, m, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(2);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f2_accuracy_is_spatial_quant_limited() {
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 2);
        assert!(err < 0.04, "rel error {err}");
    }

    #[test]
    fn f4_accuracy_no_downscale_collapse() {
        // Up-casting quantizes in the spatial domain, so its rounding error
        // is amplified by the transform (up to 100x for F(4,3)) — worse
        // than LoWino, but nothing like the down-scaling collapse. Its real
        // cost is throughput (INT16 multiply), not a broken output.
        let err = run_case(ConvShape::same(1, 16, 8, 12, 3), 4);
        assert!(err < 0.25, "rel error {err}");
    }

    #[test]
    fn f6_rejected_for_int16_overflow() {
        let spec = ConvShape::same(1, 4, 4, 12, 3).validate().unwrap();
        let err = match UpCastConv::new(spec, 6, &Tensor4::zeros(4, 4, 3, 3), QParams::UNIT) {
            Err(e) => e,
            Ok(_) => panic!("F(6,3) up-casting must be rejected"),
        };
        assert!(matches!(err, ConvError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("INT16"));
    }
}
