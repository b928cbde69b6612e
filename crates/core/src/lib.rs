//! # LoWino
//!
//! Efficient low-precision Winograd convolutions on modern CPUs — a Rust
//! reproduction of *"LoWino: Towards Efficient Low-Precision Winograd
//! Convolutions on Modern CPUs"* (Li, Jia, Feng & Wang, ICPP '21).
//!
//! LoWino makes large-tile INT8 Winograd convolution viable by quantizing
//! **in the Winograd domain** — after the `Bᵀ d B` / `G g Gᵀ` transforms
//! have amplified the value range — and pairs that with a VNNI
//! (`vpdpbusd`) kernel featuring cache/register blocking, ±128 operand
//! compensation, non-temporal scatter stores, auto-tuned blocking and
//! static multi-core scheduling.
//!
//! ## Quick start
//!
//! ```
//! use lowino::prelude::*;
//!
//! // A 3×3 convolution layer: batch 1, 64→64 channels, 16×16, "same" pad.
//! let spec = ConvShape::same(1, 64, 64, 16, 3);
//! let weights = Tensor4::from_fn(64, 64, 3, 3, |k, c, y, x| {
//!     ((k + c + y + x) as f32 * 0.37).sin() * 0.1
//! });
//! let input = Tensor4::from_fn(1, 64, 16, 16, |_, c, y, x| {
//!     ((c + y * 3 + x) as f32 * 0.21).cos()
//! });
//!
//! let mut engine = Engine::new(1);
//! let mut layer = LayerBuilder::new(spec, &weights)
//!     .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 4 }))
//!     .calibration_samples(vec![BlockedImage::from_nchw(&input)])
//!     .build(&engine)
//!     .expect("plan layer");
//!
//! let img = BlockedImage::from_nchw(&input);
//! let mut out = engine.alloc_output(&spec);
//! let timings = engine.execute(&mut layer, &img, &mut out).expect("run layer");
//! assert!(timings.total() > std::time::Duration::ZERO);
//! ```
//!
//! ## Crate map
//!
//! The public API re-exports the substrate crates:
//! [`lowino_tensor`] (layouts), [`lowino_simd`] (VNNI tiers),
//! [`lowino_winograd`] (transform generation & codelets), [`lowino_quant`]
//! (Eq. 4–7 quantization & KL calibration), [`lowino_gemm`] (the batched
//! tall-and-skinny INT8 GEMM), [`lowino_parallel`] (static scheduling) and
//! [`lowino_conv`] (the six convolution algorithms).

pub mod builder;
pub mod resilient;
pub mod select;

pub use builder::{AlgoChoice, Engine, Layer, LayerBuilder};
pub use resilient::{Demotion, DemotionReason, ResilientConv};
pub use select::{estimate_cost, select_algorithm, CostModel};

pub use lowino_conv::{
    apply_post_ops, calibrate_spatial, calibrate_winograd_domain, Algorithm, ConvContext,
    ConvError, ConvExecutor, ConvPostOps, DirectF32Conv, DirectInt8Conv, DownScaleConv,
    ExecError, LoWinoConv, StageTimings, UpCastConv, WinogradF32Conv,
};
pub use lowino_gemm::{
    Blocking, CacheModel, GemmCostModel, GemmShape, SeedSource, ShapeClass, Wisdom,
};
pub use lowino_quant::QParams;
pub use lowino_simd::{dpbusd, SimdTier};
pub use lowino_tensor::{AlignedBuf, BlockedImage, ConvShape, Tensor4, TileGeometry, LANES};

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::builder::{AlgoChoice, Engine, Layer, LayerBuilder};
    pub use crate::resilient::ResilientConv;
    pub use crate::select::select_algorithm;
    pub use lowino_conv::{Algorithm, ConvError, ConvExecutor, ExecError, StageTimings};
    pub use lowino_quant::QParams;
    pub use lowino_tensor::{BlockedImage, ConvShape, Tensor4};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let spec = ConvShape::same(1, 64, 64, 8, 3);
        let weights = Tensor4::from_fn(64, 64, 3, 3, |k, c, y, x| {
            ((k + c + y + x) as f32 * 0.37).sin() * 0.1
        });
        let input =
            Tensor4::from_fn(1, 64, 8, 8, |_, c, y, x| ((c + y * 3 + x) as f32 * 0.21).cos());
        let mut engine = Engine::new(1);
        let mut layer = LayerBuilder::new(spec, &weights)
            .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 2 }))
            .calibration_samples(vec![BlockedImage::from_nchw(&input)])
            .build(&engine)
            .unwrap();
        let img = BlockedImage::from_nchw(&input);
        let mut out = engine.alloc_output(&spec);
        let t = engine.execute(&mut layer, &img, &mut out).unwrap();
        assert!(t.total() > std::time::Duration::ZERO);
        assert!(out.max_abs() > 0.0);
    }
}
