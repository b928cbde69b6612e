//! The register-blocked micro-kernel of paper Fig. 6/7.
//!
//! One invocation computes a `row_blk × (col_blk·16)` tile of `Z[t]`:
//!
//! ```text
//! for w in 0..C_blk/4:                  (fully unrolled in the paper's JIT)
//!     for r in 0..row_blk:
//!         v_reg = broadcast the 32-bit word V[n0+r][w]
//!         prefetch next V rows
//!         for c in 0..col_blk:
//!             u_reg[c] = 64 bytes of U[w][k0+16c..]
//!             acc[r][c] = fold(acc[r][c], v_reg, u_reg[c])
//! scatter acc to Z (non-temporal or cache-allocating stores, per `Store`)
//! ```
//!
//! What a word holds, and therefore `fold`, is the [`Element`]: 4 × u8·i8
//! under `vpdpbusd` (LoWino), 2 × i16·i16 under `vpdpwssd` (the up-casting
//! baseline) or one f32 under multiply-then-add (the FP32 baseline).
//! Everything else — loads, broadcast, prefetches, the register tile, the
//! stores — addresses 32-bit words and is the same code.
//!
//! Accumulators are seeded with the compensation row `Z̄` (Eq. 9, u8×i8
//! only), with the partial result already in `Z` when iterating over `C`
//! cache blocks, or with zeros. The Rust monomorphisation over
//! `(ROW, COL, element)` plays the role of the paper's JIT specialisation:
//! each variant compiles to a fixed-shape, fully-unrolled loop body.

use lowino_simd::SimdTier;

/// What one 32-bit word of a `V` row and of a `U` word-row holds — the one
/// thing the three multiply stages differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Element {
    /// 4 × (u8 · i8), folded by `vpdpbusd` into i32 lanes.
    U8I8,
    /// 2 × (i16 · i16), folded by `vpdpwssd` into i32 lanes — half the MACs
    /// per instruction, the price of up-casting (paper §2.3).
    I16,
    /// 1 × (f32 · f32): the product is rounded, then added — never fused, so
    /// a lane is the plain `acc += v * u` over channels in ascending order.
    F32,
}

impl Element {
    /// Input channels (= MACs per output lane) in one word.
    pub const fn channels_per_word(self) -> usize {
        match self {
            Element::U8I8 => 4,
            Element::I16 => 2,
            Element::F32 => 1,
        }
    }

    /// Words that cover `c` input channels.
    pub const fn words(self, c: usize) -> usize {
        c.div_ceil(self.channels_per_word())
    }
}

/// How the accumulators start (paper §4.3.1: the `C/C_blk` partial sums).
#[derive(Debug, Clone, Copy)]
pub enum Seed {
    /// First C-chunk of a u8×i8 product: start from the compensation row
    /// (16·`col_blk` i32 at the given pointer, broadcast across rows).
    Zbar(*const i32),
    /// Later C-chunks: read the partial result back from `Z`.
    Accumulate,
    /// Plain zero (`+0.0` for f32): first C-chunk without compensation.
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
    /// Bytes of a `V` row per cache block (`C_blk`, multiple of 4): four per
    /// 32-bit word, so u8 input channels under [`Element::U8I8`].
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
/// * `v` points to `rb` rows of at least `4·words` bytes, `v_stride` bytes
///   apart;
/// * `u` points to a filter block of `words` word-rows, `u_stride` bytes
///   apart, each at least `cb·64` bytes of `elem` words;
/// * `z` points to `rb` rows of at least `cb·16` 32-bit lanes (f32 bit
///   patterns under [`Element::F32`]), `z_row_stride` lanes apart (and is
///   readable when `seed` is `Accumulate`);
/// * a `Seed::Zbar` pointer holds at least `cb·16` i32.
#[allow(clippy::too_many_arguments)]
pub unsafe fn microkernel(
    tier: SimdTier,
    elem: Element,
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_stride: usize,
    words: usize,
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
            match elem {
                Element::U8I8 => dispatch_avx512::<{ Element::U8I8 as u8 }>(
                    rb, cb, v, v_stride, u, u_stride, words, seed, z, z_row_stride, store,
                ),
                Element::I16 => dispatch_avx512::<{ Element::I16 as u8 }>(
                    rb, cb, v, v_stride, u, u_stride, words, seed, z, z_row_stride, store,
                ),
                Element::F32 => dispatch_avx512::<{ Element::F32 as u8 }>(
                    rb, cb, v, v_stride, u, u_stride, words, seed, z, z_row_stride, store,
                ),
            }
        }
        return;
    }
    // The portable kernel's plain stores are cache-allocating either way.
    let _ = store;
    microkernel_fallback(tier, elem, rb, cb, v, v_stride, u, u_stride, words, seed, z, z_row_stride);
}

// ---------------------------------------------------------------- AVX-512

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn dispatch_avx512<const E: u8>(
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_stride: usize,
    words: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
    store: Store,
) {
    macro_rules! arm {
        ($r:literal, $c:literal) => {
            match store {
                Store::Stream => {
                    mk_avx512::<$r, $c, true, E>(v, v_stride, u, u_stride, words, seed, z, z_row_stride)
                }
                Store::Cached => {
                    mk_avx512::<$r, $c, false, E>(v, v_stride, u, u_stride, words, seed, z, z_row_stride)
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

/// The Fig. 7 kernel, monomorphised over the register tile, the store kind
/// (`STREAM`: non-temporal scatter; otherwise cache-allocating) and the
/// element (`E`: an [`Element`] discriminant, which picks the fold).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn mk_avx512<const RB: usize, const CB: usize, const STREAM: bool, const E: u8>(
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_stride: usize,
    words: usize,
    seed: Seed,
    z: *mut i32,
    z_row_stride: usize,
) {
    use std::arch::x86_64::*;
    const U8I8: u8 = Element::U8I8 as u8;
    const I16: u8 = Element::I16 as u8;
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

    for w in 0..words {
        let u_base = u.add(w * u_stride);
        // Prefetch the head of the next word-row of the filter block —
        // with the pipelined driver's packed blocks that is the next
        // contiguous cache lines of the scratch slot. A hint only: past
        // the last row it touches nothing that faults.
        _mm_prefetch::<_MM_HINT_T0>(u_base.wrapping_add(u_stride));
        for r in 0..RB {
            let vp = v.add(r * v_stride + w * 4);
            // Broadcast one packed 32-bit word of input channels.
            let v_reg = _mm512_set1_epi32((vp as *const i32).read_unaligned());
            // Prefetch the same word of the next register-row block
            // (paper Fig. 7 line 6). A hint only: past the last row block
            // it may point outside the operand, hence the wrapping add.
            _mm_prefetch::<_MM_HINT_T0>(vp.wrapping_add(RB * v_stride) as *const i8);
            for c in 0..CB {
                let u_reg = _mm512_loadu_si512(u_base.add(c * 64) as *const _);
                acc[r][c] = match E {
                    U8I8 => _mm512_dpbusd_epi32(acc[r][c], v_reg, u_reg),
                    I16 => _mm512_dpwssd_epi32(acc[r][c], v_reg, u_reg),
                    // Two instructions, two roundings: the product first.
                    _ => _mm512_castps_si512(_mm512_add_ps(
                        _mm512_castsi512_ps(acc[r][c]),
                        _mm512_mul_ps(_mm512_castsi512_ps(v_reg), _mm512_castsi512_ps(u_reg)),
                    )),
                };
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
/// Accumulators are 32-bit lanes; under [`Element::F32`] they hold f32 bit
/// patterns.
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_fallback(
    tier: SimdTier,
    elem: Element,
    rb: usize,
    cb: usize,
    v: *const u8,
    v_stride: usize,
    u: *const i8,
    u_stride: usize,
    words: usize,
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

    for w in 0..words {
        let u_base = u.add(w * u_stride);
        for r in 0..rb {
            // One word of the row, broadcast to all 16 lanes in its
            // element's type, against `cb` 64-byte groups of `U`.
            let word = (v.add(r * v_stride + w * 4) as *const [u8; 4]).read();
            let acc = &mut acc[r][..cb];
            match elem {
                Element::U8I8 => {
                    let a: [u8; 64] = core::array::from_fn(|i| word[i % 4]);
                    for (c, acc) in acc.iter_mut().enumerate() {
                        let b = &*(u_base.add(c * 64) as *const [i8; 64]);
                        lowino_simd::dpbusd(tier, acc, &a, b);
                    }
                }
                Element::I16 => {
                    let pair = [[word[0], word[1]], [word[2], word[3]]].map(i16::from_ne_bytes);
                    let a: [i16; 32] = core::array::from_fn(|i| pair[i % 2]);
                    for (c, acc) in acc.iter_mut().enumerate() {
                        let b = (u_base.add(c * 64) as *const [i16; 32]).read_unaligned();
                        lowino_simd::dpwssd(tier, acc, &a, &b);
                    }
                }
                Element::F32 => {
                    let vv = f32::from_ne_bytes(word);
                    for (c, acc) in acc.iter_mut().enumerate() {
                        let b = (u_base.add(c * 64) as *const [f32; 16]).read_unaligned();
                        for (a, uu) in acc.iter_mut().zip(b) {
                            *a = (f32::from_bits(*a as u32) + vv * uu).to_bits() as i32;
                        }
                    }
                }
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
                        Element::U8I8,
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
                Element::U8I8,
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
                Element::U8I8,
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
