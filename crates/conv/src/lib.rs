//! # lowino-conv
//!
//! The convolution algorithms of the paper, all built on the same
//! substrates (`lowino-tensor`, `-simd`, `-winograd`, `-quant`, `-gemm`,
//! `-parallel`):
//!
//! | Algorithm | Paper role |
//! |---|---|
//! | [`DirectF32Conv`] | FP32 reference & §5.1 full-precision baseline |
//! | [`WinogradF32Conv`] | FP32 Winograd baseline |
//! | [`DirectInt8Conv`] | "INT8 Direct Convolution – oneDNN" baseline (Fig. 8) |
//! | [`DownScaleConv`] | the down-scaling approach (§2.3, oneDNN-style Winograd INT8) |
//! | [`UpCastConv`] | the up-casting approach (§2.3, ncnn-style INT16 Winograd) |
//! | [`LoWinoConv`] | **the paper's contribution**: Winograd-domain PTQ INT8 Winograd |
//!
//! Every executor follows the three-stage pipeline of Fig. 3 — input/filter
//! transformation ①, batched low-precision matrix multiplication ②, output
//! transformation ③ — and reports per-stage wall time ([`StageTimings`]) so
//! the Fig. 10 breakdown can be regenerated.
//!
//! Inputs and outputs use the blocked activation layout
//! ([`lowino_tensor::BlockedImage`]); weights enter as plain `K×C×r×r`
//! NCHW-style [`lowino_tensor::Tensor4`] and are re-packed offline.

pub mod algo;
pub mod calibrate;
pub mod context;
pub mod error;
pub mod filter;
pub mod scratch;
pub mod stats;
pub mod tiles;

pub use algo::direct_f32::DirectF32Conv;
pub use algo::direct_i8::DirectInt8Conv;
pub use algo::downscale::DownScaleConv;
pub use algo::lowino::LoWinoConv;
pub use algo::upcast::UpCastConv;
pub use algo::wino_f32::WinogradF32Conv;
pub use algo::{apply_post_ops, Algorithm, ConvExecutor, ConvPostOps};
pub use calibrate::{calibrate_spatial, calibrate_winograd_domain};
pub use context::ConvContext;
pub use error::{ConvError, ExecError};
pub use scratch::{ScratchArena, WorkerScratch};
pub use stats::StageTimings;

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_tensor::{BlockedImage, ConvShape, Tensor4};

    /// End-to-end smoke: LoWino vs the FP32 direct reference on a small
    /// layer must agree to quantization accuracy.
    #[test]
    fn lowino_approximates_direct_f32() {
        let spec = ConvShape::same(1, 8, 8, 12, 3).validate().unwrap();
        let input = Tensor4::from_fn(1, 8, 12, 12, |_, c, y, x| {
            ((c * 31 + y * 7 + x) as f32 * 0.43).sin()
        });
        let weights = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
            ((k * 13 + c * 5 + y * 3 + x) as f32 * 0.7).cos() * 0.3
        });
        let mut ctx = ConvContext::new(1);
        let img = BlockedImage::from_nchw(&input);

        let mut reference = DirectF32Conv::new(spec, &weights).unwrap();
        let mut out_ref = BlockedImage::zeros(1, 8, 12, 12);
        reference.execute(&img, &mut out_ref, &mut ctx).unwrap();

        let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
        let mut lw = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(1, 8, 12, 12);
        lw.execute(&img, &mut out, &mut ctx).unwrap();
        // Per-tensor F(4,3) on an 8-channel toy layer is noisy (the error
        // averages down ~1/√C on real layers); it must still be in the
        // right ballpark...
        let err = out.to_nchw().rel_l2_error(&out_ref.to_nchw());
        assert!(err < 0.30, "relative error {err}");

        // ...and the per-position granularity must be a close match even
        // at C = 8.
        let cal_pp =
            calibrate::calibrate_winograd_domain_per_position(&spec, 4, std::slice::from_ref(&img)).unwrap();
        let mut lw = LoWinoConv::new_per_position(spec, 4, &weights, &cal_pp).unwrap();
        let mut out = BlockedImage::zeros(1, 8, 12, 12);
        lw.execute(&img, &mut out, &mut ctx).unwrap();
        let err_pp = out.to_nchw().rel_l2_error(&out_ref.to_nchw());
        assert!(err_pp < 0.08, "per-position relative error {err_pp}");
        assert!(err_pp < err, "granularity must help: {err_pp} vs {err}");
    }
}
