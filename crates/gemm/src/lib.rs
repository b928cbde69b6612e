//! # lowino-gemm
//!
//! Batched tall-and-skinny low-precision matrix multiplication — the
//! computation-bound stage ② of the LoWino pipeline (paper §4.3).
//!
//! The Winograd element-wise products reduce to `T = (m+r−1)²` independent
//! GEMMs `Z[t] = V[t] × U[t]` with `V: N×C` (u8, compensated), `U: C×K`
//! (i8), `Z: N×K` (i32), where `N` — the number of input tiles — is much
//! larger than `C`/`K`. Off-the-shelf BLAS is weak on this shape, so the
//! paper (and this crate) implements a dedicated kernel with:
//!
//! * **operand panels** in VNNI-native layouts ([`panels`]): `U` interleaved
//!   `[C/4]×[K×4]`, `Z` scattered per tile position so the output transform
//!   reads contiguously (paper Table 1);
//! * **cache blocking** over `N_blk × C_blk × K_blk` sub-matrices (Fig. 5);
//! * **register blocking** `row_blk × col_blk` with one broadcast register
//!   (Fig. 6), constraint `row_blk·col_blk + col_blk < 31`;
//! * the Fig. 7 **micro-kernel**: broadcast 4 input-channel bytes, `vpdpbusd`
//!   against `col_blk` filter registers, non-temporal scatter stores,
//!   software prefetch ([`kernel`]);
//! * **compensation** seeding: accumulators start from
//!   `Z̄ = −128·colsum(U)` so unsigned-u8 inputs compute the signed result
//!   exactly (Eq. 9);
//! * the **autotuner** (§4.3.4): an analytic cost model ranking the
//!   blocking lattice ([`cost`]), and offline measured tuning whose winners
//!   persist in tier- and shape-class-keyed wisdom ([`tune`]);
//! * the same driver and kernel over INT16 ([`int16`]) and FP32
//!   ([`f32gemm`]) words ([`Element`]) for the up-casting and full-precision
//!   baselines.

pub mod cost;
pub mod f32gemm;
pub mod int16;
pub mod kernel;
pub mod panels;
pub mod reference;
pub mod tune;

mod driver;

pub use cost::{candidate_lattice, CacheModel, GemmCostModel};
pub use driver::{batched_gemm_u8i8, BlockGemm, GemmShape, GemmTasks, PanelScratch};
pub use driver::normalize_blocking as normalize_for;
pub use kernel::{Blocking, Element, MAX_COL_BLK, MAX_ROW_BLK};
pub use panels::{UPanel, UPanelF32, UPanelI16, VPanel, VPanelF32, VPanelI16, ZPanel, ZPanelF32};
pub use tune::{
    measure_candidates, tune_blocking, tune_blocking_full, Measurement, SeedSource, ShapeClass,
    Wisdom, TUNE_TOP_K,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_simd::SimdTier;

    #[test]
    fn smoke_one_gemm() {
        let shape = GemmShape {
            t: 1,
            n: 8,
            c: 8,
            k: 16,
        };
        let mut v = VPanel::new(shape.t, shape.n, shape.c);
        let mut u = UPanel::new(shape.t, shape.c, shape.k);
        for n in 0..8 {
            for c in 0..8 {
                v.set(0, n, c, (n * 8 + c) as u8);
            }
        }
        for c in 0..8 {
            for k in 0..16 {
                u.set(0, c, k, ((c * 16 + k) % 32) as i8 - 16);
            }
        }
        u.finalize_compensation();
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        batched_gemm_u8i8(
            SimdTier::detect(),
            &shape,
            &Blocking::default_for(&shape),
            &v,
            &u,
            &mut z,
            &mut lowino_parallel::StaticPool::new(1),
        );
        // Cross-check against the naive reference (which applies the same
        // compensation semantics).
        let want = reference::reference_gemm(&v, &u, &shape);
        for n in 0..8 {
            for k in 0..16 {
                assert_eq!(z.get(0, n, k), want[n * 16 + k], "n={n} k={k}");
            }
        }
    }
}
