//! INT16 batched GEMM for the up-casting baseline (paper §2.3, ncnn-style).
//!
//! The up-casting approach widens the transformed operands to INT16 to avoid
//! transform overflow, which forces the multiply stage onto `vpdpwssd` —
//! 32 multiplies per 512-bit instruction instead of `vpdpbusd`'s 64. That
//! architectural 2× is reproduced here structurally: each accumulation step
//! covers 2 channels instead of 4.

use core::ops::Range;

use lowino_parallel::StaticPool;
use lowino_simd::{dpwssd, SimdTier};
use lowino_tensor::round_up;

use crate::driver::GemmShape;
use crate::panels::{UPanelI16, VPanelI16, ZPanel};

/// A planned batched INT16 GEMM executable range-by-range from any thread —
/// the phase-body form for the up-casting executor's single fork-join.
///
/// Tasks enumerate the `T × N` grid; each task owns row `(t, n)` of `Z`.
pub struct GemmTasksI16<'a> {
    tier: SimdTier,
    shape: GemmShape,
    kp: usize,
    c2: usize,
    v: &'a VPanelI16,
    u: &'a UPanelI16,
    z: &'a ZPanel,
}

impl<'a> GemmTasksI16<'a> {
    /// Validate panels against `shape` and build the task grid.
    ///
    /// # Panics
    ///
    /// Panics on panel/shape mismatch.
    pub fn plan(
        tier: SimdTier,
        shape: &GemmShape,
        v: &'a VPanelI16,
        u: &'a UPanelI16,
        z: &'a mut ZPanel,
    ) -> Self {
        let (vt, vn, vc, vcp) = v.dims();
        let (ut, uc, ucp, uk, ukp) = u.dims();
        let (zt, zn, zk, _) = z.dims();
        assert_eq!((vt, vn, vc), (shape.t, shape.n, shape.c), "V panel shape");
        assert_eq!((ut, uc, uk), (shape.t, shape.c, shape.k), "U panel shape");
        assert_eq!((zt, zn, zk), (shape.t, shape.n, shape.k), "Z panel shape");
        assert_eq!(vcp, ucp, "V/U channel padding");
        Self {
            tier,
            shape: *shape,
            kp: ukp,
            // Only the layer's own channel pairs: the panels pad `C` to 64
            // with zeros in both operands, which add nothing to `Z`.
            c2: round_up(shape.c, 2) / 2,
            v,
            u,
            z,
        }
    }

    /// Number of independent tasks (`T × N`).
    pub fn total(&self) -> usize {
        self.shape.t * self.shape.n
    }

    /// Read access to the output panel.
    pub fn z(&self) -> &ZPanel {
        self.z
    }

    /// Execute a contiguous task range.
    pub fn run_range(&self, range: Range<usize>) {
        for task in range {
            let t = task / self.shape.n;
            let n = task % self.shape.n;
            let vrow = self.v.row(t, n);
            for k16 in 0..self.kp / 16 {
                let k = k16 * 16;
                let mut acc = [0i32; 16];
                for g in 0..self.c2 {
                    let pair = [vrow[2 * g], vrow[2 * g + 1]];
                    let mut a = [0i16; 32];
                    for lane in 0..16 {
                        a[2 * lane] = pair[0];
                        a[2 * lane + 1] = pair[1];
                    }
                    let b: &[i16; 32] =
                        self.u.pair_group(t, g, k).try_into().expect("pair group");
                    dpwssd(self.tier, &mut acc, &a, b);
                }
                // SAFETY: each (t, n) is owned by exactly one task; k is
                // 16-aligned and within the padded K range.
                unsafe {
                    let dst = self.z.store_ptr_shared(t, n, k);
                    core::ptr::copy_nonoverlapping(acc.as_ptr(), dst, 16);
                }
            }
        }
    }
}

/// Batched INT16 GEMM: `Z[t] = V[t] × U[t]` (signed, no compensation
/// needed), scattered into the common `Z` layout.
///
/// Standalone-fork-join wrapper over [`GemmTasksI16`].
///
/// # Panics
///
/// Panics on panel/shape mismatch.
pub fn batched_gemm_i16(
    tier: SimdTier,
    shape: &GemmShape,
    v: &VPanelI16,
    u: &UPanelI16,
    z: &mut ZPanel,
    pool: &mut StaticPool,
) {
    let tasks = GemmTasksI16::plan(tier, shape, v, u, z);
    pool.run(tasks.total(), |_, range| tasks.run_range(range));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm_i16;

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
        batched_gemm_i16(SimdTier::detect(), shape, v, u, &mut z, &mut pool);
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
            batched_gemm_i16(tier, &shape, &v, &u, &mut z, &mut pool);
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
