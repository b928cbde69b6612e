//! FP32 Winograd convolution — the full-precision fast-algorithm baseline,
//! as a scheme of the one staged executor ([`crate::algo::winograd`]).
//!
//! Same pipeline as LoWino with no quantizer anywhere: tiles are cut from
//! the f32 image, `V` lines keep the row pass's f32 values, the GEMM — the
//! same blocked driver and register-tiled kernel, over f32 words, and
//! depth-first where the 4×-wider `U` still leaves room in the L2 — runs at
//! FP32 throughput (16 lanes/instr vs. VNNI's 64 MACs/instr — the 4×
//! theoretical gap of paper §2.1), and ③'s column pass loads `Z` as is.

use lowino_tensor::{ConvShape, Tensor4};

use lowino_gemm::F32;

use crate::algo::winograd::{plan_tiles, Scheme, WinogradConv};
use crate::algo::Algorithm;
use crate::error::ConvError;
use crate::filter::pack_filters;

/// The full-precision scheme.
pub struct WinogradF32;

impl Scheme for WinogradF32 {
    type Elem = F32;
    const SPANS: [&'static str; 4] =
        ["", "wino_f32/input_transform", "wino_f32/gemm", "wino_f32/output_transform"];

    fn algorithm(m: usize) -> Algorithm {
        Algorithm::WinogradF32 { m }
    }
}

/// FP32 Winograd executor.
pub type WinogradF32Conv = WinogradConv<WinogradF32>;

impl WinogradF32Conv {
    /// Plan an FP32 `F(m×m, r×r)` Winograd convolution.
    pub fn new(spec: ConvShape, m: usize, weights: &Tensor4) -> Result<Self, ConvError> {
        let (spec, geom, tt) = plan_tiles(spec, m)?;
        let (u_panel, _) = pack_filters::<F32>(&spec, &geom, &tt, weights, false, |_, u| u)?;
        Ok(Self::assemble(spec, geom, tt, u_panel, None, Vec::new(), Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::algo::ConvExecutor;
    use crate::context::ConvContext;
    use lowino_tensor::BlockedImage;

    fn check(spec: ConvShape, m: usize, threads: usize, tol: f32) {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 53 + c * 11 + y * 5 + x) as f32 * 0.33).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 7 + c * 3 + y * 2 + x) as f32 * 0.61).cos() * 0.3
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let mut conv = WinogradF32Conv::new(spec, m, &weights).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(threads);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        let diff = out.to_nchw().max_abs_diff(&want);
        assert!(diff < tol, "diff {diff} (m={m}, spec={spec:?})");
    }

    #[test]
    fn f2_matches_direct() {
        check(ConvShape::same(1, 8, 8, 10, 3), 2, 1, 1e-3);
    }

    #[test]
    fn f4_matches_direct() {
        check(ConvShape::same(2, 16, 8, 12, 3), 4, 2, 1e-3);
    }

    #[test]
    fn f6_matches_direct_with_looser_tolerance() {
        // FP32 Winograd with m = 6 is numerically less stable (paper §2.2).
        check(ConvShape::same(1, 8, 8, 12, 3), 6, 1, 5e-2);
    }

    #[test]
    fn ragged_and_crossing_blocks() {
        check(ConvShape::same(1, 65, 70, 9, 3), 2, 2, 1e-3);
    }
}
