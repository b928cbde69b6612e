//! INT16 batched GEMM for the up-casting baseline (paper §2.3, ncnn-style).
//!
//! The up-casting approach widens the transformed operands to INT16 to avoid
//! transform overflow, which forces the multiply stage onto `vpdpwssd` —
//! 32 multiplies per 512-bit instruction instead of `vpdpbusd`'s 64. That
//! architectural 2× is the whole difference: a 32-bit word of `V` or `U`
//! holds 2 channels instead of 4, and the same driver and register-blocked
//! kernel walk twice as many words ([`Element::I16`]).

use lowino_simd::SimdTier;

use crate::driver::{GemmShape, GemmTasks};
use crate::kernel::{Blocking, Element};
use crate::panels::{UPanelI16, VPanelI16, ZPanel};

impl<'a> GemmTasks<'a> {
    /// Plan `Z[t] = V[t] × U[t]` over the INT16 panels (signed, so no
    /// compensation). `blocking` is one for `shape.as_u8i8(Element::I16)`.
    ///
    /// # Panics
    ///
    /// Panics on panel/shape mismatch or an invalid blocking.
    pub fn plan_i16(
        tier: SimdTier,
        shape: &GemmShape,
        blocking: &Blocking,
        v: &'a VPanelI16,
        u: &'a UPanelI16,
        z: &'a mut ZPanel,
    ) -> Self {
        Self::over(tier, Element::I16, shape, blocking, v.words(), u.words(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm_i16;
    use lowino_parallel::StaticPool;
    use lowino_tensor::round_up;

    /// Two `C` chunks on every shape below wider than 8 channels, so the
    /// partial sums take the `Accumulate` path.
    fn blocking(shape: &GemmShape) -> Blocking {
        Blocking { c_blk: 16, ..Blocking::default_for(&shape.as_u8i8(Element::I16)) }
    }

    fn random_panels(shape: &GemmShape) -> (VPanelI16, UPanelI16) {
        let mut v = VPanelI16::new(shape.t, shape.n, shape.c);
        let mut u = UPanelI16::new(shape.t, shape.c, shape.k);
        let mut s = 13u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for t in 0..shape.t {
            for n in 0..shape.n {
                for c in 0..shape.c {
                    v.row_mut(t, n)[c] = ((next() % 25401) as i32 - 12700) as i16;
                }
            }
            for c in 0..shape.c {
                for k in 0..shape.k {
                    u.set(t, c, k, ((next() % 255) as i32 - 127) as i16);
                }
            }
        }
        (v, u)
    }

    fn assert_gemm_equals(shape: &GemmShape, v: &VPanelI16, u: &UPanelI16, want: &[i32]) {
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(2);
        GemmTasks::plan_i16(SimdTier::detect(), shape, &blocking(shape), v, u, &mut z).run(&mut pool);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    assert_eq!(
                        z.get(t, n, k),
                        want[(t * shape.n + n) * shape.k + k],
                        "{shape:?} t={t} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference() {
        let shape = GemmShape { t: 3, n: 7, c: 13, k: 40 };
        let (v, u) = random_panels(&shape);
        assert_gemm_equals(&shape, &v, &u, &reference_gemm_i16(&v, &u, &shape));
    }

    #[test]
    fn walks_the_layers_channel_pairs_not_the_panels_padding() {
        // The panels pad `C` to 64; only `⌈C/2⌉` pairs carry data (a `C = 3`
        // stem: 2 of 32). With the padding of *both* operands poisoned after
        // the reference is taken, a walk that touches it reads wrong sums.
        for c in [3, 8, 37, 70] {
            let shape = GemmShape { t: 2, n: 5, c, k: 40 };
            let (mut v, mut u) = random_panels(&shape);
            let want = reference_gemm_i16(&v, &u, &shape);
            let (cp, kp) = (u.cp(), u.kp());
            for t in 0..shape.t {
                for pad in round_up(c, 2)..cp {
                    for n in 0..shape.n {
                        v.row_mut(t, n)[pad] = 111;
                    }
                    for k in 0..kp {
                        u.set(t, pad, k, -77);
                    }
                }
            }
            assert_gemm_equals(&shape, &v, &u, &want);
        }
    }

    #[test]
    fn all_tiers_agree() {
        let shape = GemmShape { t: 1, n: 3, c: 6, k: 16 };
        let mut v = VPanelI16::new(1, 3, 6);
        let mut u = UPanelI16::new(1, 6, 16);
        for n in 0..3 {
            for c in 0..6 {
                v.row_mut(0, n)[c] = (n as i16 + 1) * (c as i16 - 3) * 100;
            }
        }
        for c in 0..6 {
            for k in 0..16 {
                u.set(0, c, k, (k as i16 - 8) * (c as i16 + 1));
            }
        }
        let mut results = Vec::new();
        for tier in SimdTier::available() {
            let mut z = ZPanel::new(1, 3, 16);
            let mut pool = StaticPool::new(1);
            GemmTasks::plan_i16(tier, &shape, &blocking(&shape), &v, &u, &mut z).run(&mut pool);
            let snapshot: Vec<i32> = (0..3)
                .flat_map(|n| (0..16).map(move |k| (n, k)))
                .map(|(n, k)| z.get(0, n, k))
                .collect();
            results.push(snapshot);
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
