//! # lowino-winograd
//!
//! Winograd minimal-filtering substrate: transformation-matrix generation,
//! codelet generation for the transforms, and the transforms themselves.
//!
//! The 2-D Winograd convolution (paper Eq. 1) is
//!
//! ```text
//! y_k = Aᵀ ( Σ_c (G g_{k,c} Gᵀ) ⊙ (Bᵀ d_c B) ) A
//! ```
//!
//! This crate provides:
//!
//! * [`rational`] — exact rational arithmetic over `i128`, so matrix
//!   generation and the algebraic-identity tests are error-free;
//! * [`matrices`] — Cook–Toom construction of `Aᵀ`, `G`, `Bᵀ` for arbitrary
//!   `F(m, r)` (the wincnn equivalent the paper relies on), plus the
//!   canonical Lavin matrices for `F(2,3)`, `F(4,3)`, `F(6,3)`;
//! * [`codelet`] — the transformation codelet generator of paper §4.2.4
//!   (Fig. 4): an expression IR derived from a transform matrix with
//!   zero-elimination and common-subexpression elimination, executed
//!   lane-wise over 64-channel groups;
//! * [`tape`] — codelet *lowering* to a flat `(dst, src, coeff)` term list
//!   and its execution over explicit three-tier f32 SIMD vectors with
//!   fused quantize/dequantize/post-op epilogues: on a generated kernel
//!   where one exists, on a generic run-time driver otherwise;
//! * [`codegen`] / [`kernels`] — the paper's "emit code" step (§4.2.4):
//!   the generator that prints the lowered `F(2,3)`/`F(4,3)`/`F(6,3)`
//!   codelets as straight-line Rust, and its checked-in, test-reproduced
//!   output;
//! * [`transform`] — input (`Bᵀ d B`), filter (`G g Gᵀ`) and output
//!   (`Aᵀ Z A`) tile transforms in `f32` and the integer variants used by
//!   the down-scaling / up-casting baselines, in interpreted (reference
//!   oracle) and lowered forms, from gathered tiles or in place;
//! * [`analysis`] — the value-range-growth analysis of paper §2.2 (the
//!   4× / 100× / ~10⁴× amplification that motivates Winograd-domain
//!   quantization).

pub mod analysis;
pub mod codegen;
pub mod codelet;
pub mod kernels;
pub mod matrices;
pub mod rational;
pub mod tape;
pub mod transform;

pub use analysis::{range_growth_1d, range_growth_2d};
pub use matrices::{WinogradMatrices, F2_3, F4_3, F6_3};
pub use rational::Rational;
pub use kernels::KernelId;
pub use tape::{Tape, TapeInstr, TapePostOps};
pub use transform::{TileTransformer, TransformScratch};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_matrices_exist_for_supported_tile_sizes() {
        for m in [2usize, 4, 6] {
            let w = WinogradMatrices::for_tile(m, 3).unwrap();
            assert_eq!(w.n(), m + 2);
        }
        assert!(WinogradMatrices::for_tile(3, 3).is_ok()); // generated on demand
        assert!(WinogradMatrices::for_tile(0, 3).is_err());
    }
}
