//! The register-blocked micro-kernel of paper Fig. 6/7.
//!
//! One invocation computes a `row_blk × (col_blk·16)` tile of `Z[t]`:
//!
//! ```text
//! for c4 in 0..C_blk/4:                 (fully unrolled in the paper's JIT)
//!     for r in 0..row_blk:
//!         v_reg = broadcast 4 bytes of V[n0+r][4·c4..]
//!         prefetch next V rows
//!         for c in 0..col_blk:
//!             u_reg[c] = 64 bytes of U[c4][k0+16c..]
//!             acc[r][c] = vpdpbusd(acc[r][c], v_reg, u_reg[c])
//! scatter acc to Z (non-temporal or cache-allocating stores, per `Store`)
//! ```
//!
//! Accumulators are seeded with the compensation row `Z̄` (Eq. 9), with the
//! partial result already in `Z` when iterating over `C` cache blocks, or
//! with zeros. The Rust monomorphisation over `(ROW, COL)` plays the role of
//! the paper's JIT specialisation: each variant compiles to a fixed-shape,
//! fully-unrolled loop body.

use lowino_simd::SimdTier;

/// How the accumulators start (paper §4.3.1: the `C/C_blk` partial sums).
#[derive(Debug, Clone, Copy)]
pub enum Seed {
    /// First C-chunk: start from the compensation row (16·`col_blk` i32 at
    /// the given pointer, broadcast across rows).
    Zbar(*const i32),
    /// Later C-chunks: read the partial result back from `Z`.
    Accumulate,
    /// Plain zero (kernels without compensation).
    Zero,
}

/// How the finished accumulators leave the registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// Non-temporal scatter (paper §4.3.2): `Z` goes to memory for a later
    /// stage on another barrier; nothing in this task reads it back.
    Stream,
    /// Ordinary cache-allocating stores: the same worker reads the values
    /// back shortly — a partial sum a later `C` chunk accumulates into, or
    /// the depth-first schedule's cache-resident `Z` block.
    Cached,
}

/// Cache- and register-blocking parameters (paper §4.3.4's tuning space).
///
/// The `Ord`/`Hash` derives give candidate sets a canonical order so the
/// tuner can sort+dedup its lattice and wisdom files serialise stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Blocking {
    /// Rows of `V` per cache block (`N_blk`).
    pub n_blk: usize,
    /// Input channels per cache block (`C_blk`, multiple of 4).
    pub c_blk: usize,
    /// Output channels per cache block (`K_blk`, multiple of 64).
    pub k_blk: usize,
    /// Register-tile rows (`row_blk`).
    pub row_blk: usize,
    /// Register-tile columns in ZMM units (`col_blk` ∈ {1, 2, 4}).
    pub col_blk: usize,
}

/// Largest `row_blk` the dispatch table instantiates.
pub const MAX_ROW_BLK: usize = 8;

/// Largest `col_blk` the dispatch table instantiates (`col_blk` ∈ {1, 2, 4}).
pub const MAX_COL_BLK: usize = 4;

impl Blocking {
    /// The paper's register-budget constraint:
    /// `row_blk·col_blk + col_blk < 31` (one register reserved for the
    /// broadcast), plus this implementation's dispatch-table limits.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.col_blk, 1 | 2 | 4) {
            return Err(format!("col_blk must be 1, 2 or 4, got {}", self.col_blk));
        }
        if self.row_blk == 0 || self.row_blk > MAX_ROW_BLK {
            return Err(format!("row_blk must be in 1..={MAX_ROW_BLK}, got {}", self.row_blk));
        }
        if self.row_blk * self.col_blk + self.col_blk >= 31 {
            return Err(format!(
                "register budget exceeded: {}*{} + {} >= 31",
                self.row_blk, self.col_blk, self.col_blk
            ));
        }
        if self.c_blk == 0 || !self.c_blk.is_multiple_of(4) {
            return Err(format!("c_blk must be a positive multiple of 4, got {}", self.c_blk));
        }
        if self.k_blk == 0 || !self.k_blk.is_multiple_of(64) {
            return Err(format!("k_blk must be a positive multiple of 64, got {}", self.k_blk));
        }
        if self.n_blk == 0 {
            return Err("n_blk must be positive".into());
        }
        // §4.3.4: sub-matrices must fit in cache.
        if self.c_blk * self.k_blk > 512 * 512 {
            return Err(format!(
                "c_blk*k_blk = {} exceeds the 512² cache budget",
                self.c_blk * self.k_blk
            ));
        }
        Ok(())
    }

    /// A reasonable default for a GEMM shape (used when no wisdom exists):
    /// `6×4` register tile, cache blocks clamped to the problem.
    pub fn default_for(shape: &crate::GemmShape) -> Self {
        let cp = lowino_tensor::round_up(shape.c, 4);
        let kp = lowino_tensor::round_up(shape.k, 64);
        Blocking {
            n_blk: shape.n.clamp(1, 192),
            c_blk: cp.min(512),
            k_blk: kp.min(256),
            row_blk: 6,
            col_blk: 4,
        }
    }
}

/// Tier-dispatched micro-kernel. All pointers must satisfy the layout
/// contracts of [`crate::panels`]; `rb ∈ 1..=MAX_ROW_BLK`, `cb ∈ {1,2,4}`,
/// `rb·cb + cb < 31`.
///
/// # Safety
///
/// * `v` points to `rb` rows of at least `4·c4_count` bytes, `v_stride`
///   apart;
/// * `u` points to an interleaved filter block of `c4_count` groups,
///   `u_c4_stride` bytes apart, each at least `cb·64` bytes;
/// * `z` points to `rb` rows of at least `cb·16` i32, `z_row_stride`
///   elements apart (and is readable when `seed` is `Accumulate`);
/// * a `Seed::Zbar` pointer holds at least `cb·16` i32.
#[allow(clippy::too_many_arguments)]
pub unsafe fn microkernel(
    tier: SimdTier,
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_c4_stride: usize,
    c4_count: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
    store: Store,
) {
    debug_assert!((1..=MAX_ROW_BLK).contains(&rb) && matches!(cb, 1 | 2 | 4));
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx512Vnni {
        // SAFETY: the caller's contract, passed through unchanged; the
        // tier guarantees the kernel's target features, and the streaming
        // variant checks each store's 64-byte alignment itself.
        unsafe {
            dispatch_avx512(rb, cb, v, v_stride, u, u_c4_stride, c4_count, seed, z, z_row_stride, store);
        }
        return;
    }
    // The portable kernel's plain stores are cache-allocating either way.
    let _ = store;
    microkernel_fallback(tier, rb, cb, v, v_stride, u, u_c4_stride, c4_count, seed, z, z_row_stride);
}

// ---------------------------------------------------------------- AVX-512

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn dispatch_avx512(
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_c4_stride: usize,
    c4_count: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
    store: Store,
) {
    macro_rules! arm {
        ($r:literal, $c:literal) => {
            match store {
                Store::Stream => {
                    mk_avx512::<$r, $c, true>(v, v_stride, u, u_c4_stride, c4_count, seed, z, z_row_stride)
                }
                Store::Cached => {
                    mk_avx512::<$r, $c, false>(v, v_stride, u, u_c4_stride, c4_count, seed, z, z_row_stride)
                }
            }
        };
    }
    match (rb, cb) {
        (1, 1) => arm!(1, 1),
        (2, 1) => arm!(2, 1),
        (3, 1) => arm!(3, 1),
        (4, 1) => arm!(4, 1),
        (5, 1) => arm!(5, 1),
        (6, 1) => arm!(6, 1),
        (7, 1) => arm!(7, 1),
        (8, 1) => arm!(8, 1),
        (1, 2) => arm!(1, 2),
        (2, 2) => arm!(2, 2),
        (3, 2) => arm!(3, 2),
        (4, 2) => arm!(4, 2),
        (5, 2) => arm!(5, 2),
        (6, 2) => arm!(6, 2),
        (7, 2) => arm!(7, 2),
        (8, 2) => arm!(8, 2),
        (1, 4) => arm!(1, 4),
        (2, 4) => arm!(2, 4),
        (3, 4) => arm!(3, 4),
        (4, 4) => arm!(4, 4),
        (5, 4) => arm!(5, 4),
        (6, 4) => arm!(6, 4),
        _ => unreachable!("invalid register tile {rb}x{cb}"),
    }
}

/// The Fig. 7 kernel, monomorphised over the register tile and the store
/// kind (`STREAM`: non-temporal scatter; otherwise cache-allocating).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512<const RB: usize, const CB: usize, const STREAM: bool>(
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_c4_stride: usize,
    c4_count: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_si512(); CB]; RB];
    match seed {
        Seed::Zbar(p) => {
            for c in 0..CB {
                let row = _mm512_loadu_si512(p.add(c * 16) as *const _);
                for r in 0..RB {
                    acc[r][c] = row;
                }
            }
        }
        Seed::Accumulate => {
            for r in 0..RB {
                for c in 0..CB {
                    acc[r][c] =
                        _mm512_loadu_si512(z.add(r * z_row_stride + c * 16) as *const _);
                }
            }
        }
        Seed::Zero => {}
    }

    for c4 in 0..c4_count {
        let u_base = u.add(c4 * u_c4_stride);
        // Prefetch the head of the next 4-channel group's filter row —
        // with the pipelined driver's packed blocks that is the next
        // contiguous cache lines of the scratch slot. A hint only: past
        // the last group it touches nothing that faults.
        _mm_prefetch::<_MM_HINT_T0>(u_base.wrapping_add(u_c4_stride));
        for r in 0..RB {
            let vp = v.add(r * v_stride + c4 * 4);
            // Broadcast one packed 32-bit word (4 input-channel bytes).
            let v_reg = _mm512_set1_epi32((vp as *const i32).read_unaligned());
            // Prefetch the same c4 position of the next register-row block
            // (paper Fig. 7 line 6). A hint only: past the last row block
            // it may point outside the operand, hence the wrapping add.
            _mm_prefetch::<_MM_HINT_T0>(vp.wrapping_add(RB * v_stride) as *const i8);
            for c in 0..CB {
                let u_reg = _mm512_loadu_si512(u_base.add(c * 64) as *const _);
                acc[r][c] = _mm512_dpbusd_epi32(acc[r][c], v_reg, u_reg);
            }
        }
    }

    for r in 0..RB {
        for c in 0..CB {
            let dst = z.add(r * z_row_stride + c * 16);
            if STREAM && (dst as usize).is_multiple_of(64) {
                // Non-temporal scatter (paper §4.3.2) — Z is consumed by a
                // later stage, not re-read here.
                _mm512_stream_si512(dst as *mut _, acc[r][c]);
            } else {
                _mm512_storeu_si512(dst as *mut _, acc[r][c]);
            }
        }
    }
}

// --------------------------------------------------------------- fallback

/// Portable kernel used on the AVX2/scalar tiers (and as the semantic
/// reference for the AVX-512 path — the tiers are tested bit-identical).
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_fallback(
    tier: SimdTier,
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_c4_stride: usize,
    c4_count: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
) {
    debug_assert!(rb <= MAX_ROW_BLK && cb <= 4);
    let mut acc = [[[0i32; 16]; 4]; MAX_ROW_BLK];
    match seed {
        Seed::Zbar(p) => {
            for c in 0..cb {
                let row = core::slice::from_raw_parts(p.add(c * 16), 16);
                for r in 0..rb {
                    acc[r][c].copy_from_slice(row);
                }
            }
        }
        Seed::Accumulate => {
            for r in 0..rb {
                for c in 0..cb {
                    let row = core::slice::from_raw_parts(z.add(r * z_row_stride + c * 16), 16);
                    acc[r][c].copy_from_slice(row);
                }
            }
        }
        Seed::Zero => {}
    }

    let mut v_bcast = [0u8; 64];
    for c4 in 0..c4_count {
        let u_base = u.add(c4 * u_c4_stride);
        for r in 0..rb {
            let vp = v.add(r * v_stride + c4 * 4);
            let word: [u8; 4] = [*vp, *vp.add(1), *vp.add(2), *vp.add(3)];
            for lane in 0..16 {
                v_bcast[lane * 4..lane * 4 + 4].copy_from_slice(&word);
            }
            for c in 0..cb {
                let u_reg: &[i8; 64] = &*(u_base.add(c * 64) as *const [i8; 64]);
                lowino_simd::dpbusd(tier, &mut acc[r][c], &v_bcast, u_reg);
            }
        }
    }

    for r in 0..rb {
        for c in 0..cb {
            let dst = core::slice::from_raw_parts_mut(z.add(r * z_row_stride + c * 16), 16);
            dst.copy_from_slice(&acc[r][c]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_validation() {
        let ok = Blocking {
            n_blk: 96,
            c_blk: 128,
            k_blk: 128,
            row_blk: 6,
            col_blk: 4,
        };
        assert!(ok.validate().is_ok());

        let mut b = ok;
        b.row_blk = 7; // 7*4+4 = 32 >= 31
        assert!(b.validate().is_err());
        let mut b = ok;
        b.col_blk = 3;
        assert!(b.validate().is_err());
        let mut b = ok;
        b.c_blk = 6;
        assert!(b.validate().is_err());
        let mut b = ok;
        b.k_blk = 100;
        assert!(b.validate().is_err());
        let mut b = ok;
        b.c_blk = 2048;
        b.k_blk = 512;
        assert!(b.validate().is_err()); // 2048*512 > 512²
        let mut b = ok;
        b.row_blk = 8;
        b.col_blk = 2; // 8*2+2 = 18 < 31
        assert!(b.validate().is_ok());
    }

    /// Scalar model of what one micro-kernel call must compute.
    #[allow(clippy::too_many_arguments)]
    fn model(
        rb: usize,
        cb: usize,
        v: &[u8],
        v_stride: usize,
        u_get: impl Fn(usize, usize) -> i8, // (c, k16lane) in this block
        c4_count: usize,
        zbar: Option<&[i32]>,
        z0: &[i32],
        z_stride: usize,
    ) -> Vec<i32> {
        let mut out = vec![0i32; rb * cb * 16];
        for r in 0..rb {
            for c in 0..cb {
                for lane in 0..16 {
                    let k = c * 16 + lane;
                    let mut acc = match zbar {
                        Some(zb) => zb[k],
                        None => z0[r * z_stride + k],
                    };
                    for cc in 0..c4_count * 4 {
                        acc += i32::from(v[r * v_stride + cc]) * i32::from(u_get(cc, k));
                    }
                    out[(r * cb + c) * 16 + lane] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn microkernel_matches_model_all_tiers_and_tiles() {
        use lowino_tensor::AlignedBuf;
        let c4_count = 5; // C = 20
        let kp = 64;
        // Build operands.
        let mut s = 0xABCDEFu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for tier in SimdTier::available() {
            for (i, (rb, cb)) in [(1, 1), (2, 2), (3, 4), (6, 4), (8, 2), (5, 1), (4, 4)]
                .into_iter()
                .enumerate()
            {
                // Both store kinds must leave the same integers in `z`.
                let store = if i % 2 == 0 { Store::Stream } else { Store::Cached };
                let v_stride = c4_count * 4;
                let mut v = AlignedBuf::<u8>::zeroed(rb * v_stride);
                for x in v.as_mut_slice() {
                    *x = (next() & 0xFF) as u8;
                }
                // Interleaved U: [c4][k][4].
                let mut u = AlignedBuf::<i8>::zeroed(c4_count * kp * 4);
                for x in u.as_mut_slice() {
                    *x = (next() & 0xFF) as u8 as i8;
                }
                let u_get = |c: usize, k: usize| -> i8 {
                    u.as_slice()[(c / 4) * kp * 4 + k * 4 + (c % 4)]
                };
                let mut zbar = AlignedBuf::<i32>::zeroed(cb * 16);
                for x in zbar.as_mut_slice() {
                    *x = (next() & 0xFFFF) as i32 - 32768;
                }
                let z_stride = cb * 16;
                let mut z = AlignedBuf::<i32>::zeroed(rb * z_stride);

                // SAFETY: buffers sized to the contract above.
                unsafe {
                    microkernel(
                        tier,
                        rb,
                        cb,
                        v.as_ptr(),
                        v_stride,
                        u.as_ptr(),
                        kp * 4,
                        c4_count,
                        Seed::Zbar(zbar.as_ptr()),
                        z.as_mut_ptr(),
                        z_stride,
                        store,
                    );
                }
                lowino_simd::store::stream_fence();
                let want = model(
                    rb,
                    cb,
                    v.as_slice(),
                    v_stride,
                    u_get,
                    c4_count,
                    Some(zbar.as_slice()),
                    &[],
                    z_stride,
                );
                for r in 0..rb {
                    for c in 0..cb {
                        for lane in 0..16 {
                            assert_eq!(
                                z.as_slice()[r * z_stride + c * 16 + lane],
                                want[(r * cb + c) * 16 + lane],
                                "tier={tier} rb={rb} cb={cb} r={r} c={c} lane={lane}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn microkernel_accumulate_seed() {
        use lowino_tensor::AlignedBuf;
        let c4_count = 2;
        let kp = 64;
        let (rb, cb) = (2usize, 2usize);
        let v_stride = c4_count * 4;
        let mut v = AlignedBuf::<u8>::zeroed(rb * v_stride);
        v.fill(1);
        let mut u = AlignedBuf::<i8>::zeroed(c4_count * kp * 4);
        u.fill(1);
        let z_stride = cb * 16;
        let mut z = AlignedBuf::<i32>::zeroed(rb * z_stride);
        z.fill(100);
        // SAFETY: buffers sized to the contract.
        unsafe {
            microkernel(
                SimdTier::detect(),
                rb,
                cb,
                v.as_ptr(),
                v_stride,
                u.as_ptr(),
                kp * 4,
                c4_count,
                Seed::Accumulate,
                z.as_mut_ptr(),
                z_stride,
                Store::Cached,
            );
        }
        lowino_simd::store::stream_fence();
        // 100 + 8·(1·1) = 108 everywhere.
        assert!(z.as_slice().iter().all(|&x| x == 108), "{:?}", &z.as_slice()[..8]);
    }

    #[test]
    fn microkernel_zero_seed() {
        use lowino_tensor::AlignedBuf;
        let (rb, cb, c4) = (1usize, 1usize, 1usize);
        let v = AlignedBuf::<u8>::from_slice(&[2, 0, 0, 0]);
        let mut u = AlignedBuf::<i8>::zeroed(64 * 4);
        u.as_mut_slice()[0] = 3; // c=0, k=0
        let mut z = AlignedBuf::<i32>::zeroed(16);
        z.fill(7); // must be overwritten, not accumulated
        // SAFETY: buffers sized to the contract.
        unsafe {
            microkernel(
                SimdTier::detect(),
                rb,
                cb,
                v.as_ptr(),
                4,
                u.as_ptr(),
                64 * 4,
                c4,
                Seed::Zero,
                z.as_mut_ptr(),
                16,
                Store::Stream,
            );
        }
        lowino_simd::store::stream_fence();
        assert_eq!(z.as_slice()[0], 6);
        assert_eq!(z.as_slice()[1], 0);
    }
}
