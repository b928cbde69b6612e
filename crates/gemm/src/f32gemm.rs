//! FP32 batched GEMM for the full-precision Winograd baseline.
//!
//! Same tall-and-skinny shape, scatter layout, blocked driver and
//! register-tiled kernel as the INT8 path, over words that hold one f32
//! channel ([`Element::F32`]): 16 MACs per multiply-add pair against
//! `vpdpbusd`'s 64 — the 4× theoretical gap of paper §2.1, and the
//! reference point for the §5.1 claim that LoWino reaches 1.9×/2.6× over the
//! best FP32 implementation.
//!
//! Rounding rule: each output is `acc += v·u` over the channels in ascending
//! order from `+0.0`, the product rounded before the add — on every tier,
//! under every blocking (a partial sum parked in `Z` between `C` chunks is
//! the same f32). A fused multiply-add would round once and change bits.

use lowino_simd::SimdTier;

use crate::driver::{GemmShape, GemmTasks};
use crate::kernel::{Blocking, Element};
use crate::panels::{UPanelF32, VPanelF32, ZPanelF32};

impl<'a> GemmTasks<'a, f32> {
    /// Plan `Z[t] = V[t] × U[t]` over the FP32 panels. `blocking` is one
    /// for `shape.as_u8i8(Element::F32)`.
    ///
    /// # Panics
    ///
    /// Panics on panel/shape mismatch or an invalid blocking.
    pub fn plan_f32(
        tier: SimdTier,
        shape: &GemmShape,
        blocking: &Blocking,
        v: &'a VPanelF32,
        u: &'a UPanelF32,
        z: &'a mut ZPanelF32,
    ) -> Self {
        Self::over(tier, Element::F32, shape, blocking, v.words(), u.words(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm_f32;
    use lowino_parallel::StaticPool;

    #[test]
    fn matches_reference() {
        let shape = GemmShape { t: 4, n: 11, c: 20, k: 70 };
        let mut v = VPanelF32::new(shape.t, shape.n, shape.c);
        let mut u = UPanelF32::new(shape.t, shape.c, shape.k);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for c in 0..shape.c {
                    v.row_mut(t, n)[c] = ((t * 31 + n * 7 + c) as f32 * 0.37).sin();
                }
            }
            for c in 0..shape.c {
                for k in 0..shape.k {
                    u.row_mut(t, c)[k] = ((t + c * 13 + k) as f32 * 0.11).cos();
                }
            }
        }
        let mut z = ZPanelF32::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(2);
        let blocking = Blocking::default_for(&shape.as_u8i8(Element::F32));
        GemmTasks::plan_f32(SimdTier::detect(), &shape, &blocking, &v, &u, &mut z).run(&mut pool);
        let want = reference_gemm_f32(&v, &u, &shape);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    let got = z.get(t, n, k);
                    let w = want[(t * shape.n + n) * shape.k + k];
                    assert_eq!(got.to_bits(), w.to_bits(), "t={t} n={n} k={k}: {got} vs {w}");
                }
            }
        }
    }

    #[test]
    fn zero_input_stays_zero() {
        let shape = GemmShape { t: 1, n: 2, c: 4, k: 64 };
        let v = VPanelF32::new(1, 2, 4);
        let u = UPanelF32::new(1, 4, 64);
        let mut z = ZPanelF32::new(1, 2, 64);
        let mut pool = StaticPool::new(1);
        let blocking = Blocking::default_for(&shape.as_u8i8(Element::F32));
        GemmTasks::plan_f32(SimdTier::detect(), &shape, &blocking, &v, &u, &mut z).run(&mut pool);
        for n in 0..2 {
            for k in 0..64 {
                assert_eq!(z.get(0, n, k), 0.0);
            }
        }
    }
}
