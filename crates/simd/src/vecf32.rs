//! Explicit three-tier `f32` SIMD vectors — the execution substrate of the
//! compiled transform tapes (paper §4.2.4) and the fused
//! quantize/dequantize epilogues.
//!
//! Mirrors the `dpbusd` tier design: one portable scalar model
//! ([`F32x1`]), an AVX2 `f32x8` tier ([`F32x8`]) and an AVX-512 `f32x16`
//! tier ([`F32x16`]), all **bitwise identical** for finite inputs. The f32
//! tiers need only `avx2` / `avx512f` (not VNNI), so [`VecTier`] carries
//! its own capability axis: [`VecTier::for_simd`] maps the kernel
//! [`SimdTier`] onto it (the production path — forcing a tier via
//! `LOWINO_FORCE_TIER` therefore forces the f32 vectors too), while
//! [`VecTier::available`] reports what the host can *execute*, so
//! equivalence tests cover the `f32x16` code even on AVX-512 hosts
//! without VNNI.
//!
//! ## Bitwise-equivalence contract
//!
//! Every operation rounds exactly like its scalar spelling:
//!
//! * `mul`/`add` are plain IEEE single ops (never contracted into FMA —
//!   the interpreted codelet executor rounds after every multiply, and the
//!   tapes must reproduce it bit-for-bit);
//! * [`F32Vector::load_i32_scaled`] is `cvtdq2ps` + `mulps`, identical to
//!   `x as f32 * scale`;
//! * [`F32Vector::quantize_u8`] clamps with `minps` then `maxps`
//!   **before** the rounding convert (`cvtps2dq`, ties-to-even), and the
//!   scalar [`quantize_f32_lanes_i8`](crate::quantize_f32_lanes_i8) spells
//!   the same clamp in the same operand order — so non-finite lanes agree
//!   too: `NaN` and `+∞` saturate to +127, `−∞` to −127, on every tier.

use crate::cast::{quantize_one, QMAX};
use crate::dispatch::SimdTier;

/// The f32 vector width a tape executes with. Ordered narrow → wide so
/// `Ord` means "capability", exactly like [`SimdTier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VecTier {
    /// Portable scalar reference model (one lane per step).
    Scalar,
    /// AVX2 `f32x8` (`__m256`).
    F32x8,
    /// AVX-512 `f32x16` (`__m512`, requires `avx512f` only).
    F32x16,
}

impl VecTier {
    /// The vector tier the given kernel tier executes with. Strictly
    /// tier-keyed so `LOWINO_FORCE_TIER=scalar` forces scalar transforms
    /// and per-tier CI runs exercise exactly one width.
    pub fn for_simd(tier: SimdTier) -> Self {
        match tier {
            SimdTier::Avx512Vnni => VecTier::F32x16,
            SimdTier::Avx2 => VecTier::F32x8,
            SimdTier::Scalar => VecTier::Scalar,
        }
    }

    /// Best width the host can execute (independent of VNNI, so `f32x16`
    /// is testable on AVX-512 hosts without VNNI).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return VecTier::F32x16;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return VecTier::F32x8;
            }
        }
        VecTier::Scalar
    }

    /// All widths executable on this host, widest first, scalar always
    /// last — the iteration set of the equivalence tests.
    pub fn available() -> Vec<VecTier> {
        let best = Self::detect();
        let mut v = Vec::with_capacity(3);
        if best >= VecTier::F32x16 {
            v.push(VecTier::F32x16);
        }
        if best >= VecTier::F32x8 {
            v.push(VecTier::F32x8);
        }
        v.push(VecTier::Scalar);
        v
    }

    /// Lanes per vector.
    pub fn width(self) -> usize {
        match self {
            VecTier::F32x16 => 16,
            VecTier::F32x8 => 8,
            VecTier::Scalar => 1,
        }
    }

    /// Human-readable name used in bench output.
    pub fn name(self) -> &'static str {
        match self {
            VecTier::F32x16 => "f32x16",
            VecTier::F32x8 => "f32x8",
            VecTier::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for VecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One f32 SIMD register of [`Self::WIDTH`] lanes.
///
/// # Safety
///
/// Every method requires the implementing tier's CPU features to be
/// available; callers must dispatch through a `#[target_feature]` wrapper
/// selected by [`VecTier`] (or use [`F32x1`], which has no requirement).
pub trait F32Vector: Copy {
    /// Lanes per register.
    const WIDTH: usize;

    /// Unaligned load of `WIDTH` lanes.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for `WIDTH` reads; tier features required.
    unsafe fn load(ptr: *const f32) -> Self;

    /// Unaligned store of `WIDTH` lanes.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for `WIDTH` writes; tier features required.
    unsafe fn store(self, ptr: *mut f32);

    /// Load `WIDTH` `i32` lanes, convert (`cvtdq2ps`: round-nearest-even,
    /// same as `as f32`) and multiply by `scale` — the fused dequantize
    /// load of paper Eq. 6.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for `WIDTH` reads; tier features required.
    unsafe fn load_i32_scaled(ptr: *const i32, scale: f32) -> Self;

    /// Broadcast `x` to every lane.
    ///
    /// # Safety
    ///
    /// Tier features required.
    unsafe fn splat(x: f32) -> Self;

    /// All-zero register.
    ///
    /// # Safety
    ///
    /// Tier features required.
    unsafe fn zero() -> Self;

    /// Lanewise IEEE multiply (no FMA contraction).
    ///
    /// # Safety
    ///
    /// Tier features required.
    unsafe fn mul(self, rhs: Self) -> Self;

    /// Lanewise IEEE add.
    ///
    /// # Safety
    ///
    /// Tier features required.
    unsafe fn add(self, rhs: Self) -> Self;

    /// Lanewise maximum with x86 `maxps` semantics: `self > rhs ? self :
    /// rhs` per lane. With `rhs = zero()` this is exactly the ReLU the
    /// scalar model spells `if x > 0.0 { x } else { 0.0 }` — `-0.0` maps
    /// to `+0.0` and `NaN` maps to `rhs`, on every tier, which is what
    /// keeps the fused ReLU epilogue bitwise identical to the f32
    /// reference path's `v.max(0.0)`.
    ///
    /// # Safety
    ///
    /// Tier features required.
    unsafe fn max(self, rhs: Self) -> Self;

    /// Fused quantize epilogue (paper Eq. 4 + the §4.2.1 +128
    /// compensation): per lane `x`, compute
    /// `clamp(round_ties_even(x·alpha), ±127) + offset` and store the low
    /// byte of each result as `u8` — `WIDTH` bytes at `dst`. Matches
    /// [`quantize_f32_lanes_i8`](crate::quantize_f32_lanes_i8) bitwise for
    /// every `x`, non-finite ones included (`NaN` saturates to +127).
    ///
    /// # Safety
    ///
    /// `dst` must be valid for `WIDTH` byte writes; tier features required.
    unsafe fn quantize_u8(self, alpha: f32, offset: i32, dst: *mut u8);
}

/// Scalar one-lane reference model — the executable specification the
/// vector tiers are property-tested against.
#[derive(Debug, Clone, Copy)]
pub struct F32x1(pub f32);

impl F32Vector for F32x1 {
    const WIDTH: usize = 1;

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        F32x1(*ptr)
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        *ptr = self.0;
    }

    #[inline(always)]
    unsafe fn load_i32_scaled(ptr: *const i32, scale: f32) -> Self {
        F32x1(*ptr as f32 * scale)
    }

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        F32x1(x)
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x1(0.0)
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        F32x1(self.0 * rhs.0)
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        F32x1(self.0 + rhs.0)
    }

    #[inline(always)]
    unsafe fn max(self, rhs: Self) -> Self {
        // `maxps` semantics, not `f32::max`: second operand wins on NaN,
        // and `max(-0.0, +0.0)` is `+0.0` because `-0.0 > 0.0` is false.
        F32x1(if self.0 > rhs.0 { self.0 } else { rhs.0 })
    }

    #[inline(always)]
    unsafe fn quantize_u8(self, alpha: f32, offset: i32, dst: *mut u8) {
        // The scalar `quantize_f32_lanes_i8` body for one lane: the clamp
        // in `minps`/`maxps` operand order, as `max` above spells `maxps`.
        *dst = quantize_one(self.0, alpha, offset);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{F32Vector, QMAX};
    use core::arch::x86_64::*;

    /// AVX2 `f32x8` tier.
    #[derive(Clone, Copy)]
    pub struct F32x8(__m256);

    impl F32Vector for F32x8 {
        const WIDTH: usize = 8;

        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            F32x8(_mm256_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm256_storeu_ps(ptr, self.0);
        }

        #[inline(always)]
        unsafe fn load_i32_scaled(ptr: *const i32, scale: f32) -> Self {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(ptr as *const __m256i));
            F32x8(_mm256_mul_ps(v, _mm256_set1_ps(scale)))
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            F32x8(_mm256_set1_ps(x))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x8(_mm256_setzero_ps())
        }

        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            F32x8(_mm256_mul_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            F32x8(_mm256_add_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            // Operand order matters: `maxps(a, b)` returns `b` when either
            // operand is NaN or when `a == b` (so `max(-0.0, +0.0) = +0.0`).
            F32x8(_mm256_max_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn quantize_u8(self, alpha: f32, offset: i32, dst: *mut u8) {
            let scaled = _mm256_mul_ps(self.0, _mm256_set1_ps(alpha));
            // Clamp in float, then `cvtps2dq` (round-nearest-even) — see
            // the module docs for why this equals round-then-clamp.
            let hi = _mm256_set1_ps(QMAX as f32);
            let lo = _mm256_set1_ps(-(QMAX as f32));
            let clamped = _mm256_max_ps(_mm256_min_ps(scaled, hi), lo);
            let q = _mm256_add_epi32(_mm256_cvtps_epi32(clamped), _mm256_set1_epi32(offset));
            // Low byte of each i32 lane → 8 contiguous bytes: pick bytes
            // {0,4,8,12} inside each 128-bit half, then merge the halves.
            #[rustfmt::skip]
            let pick = _mm256_setr_epi8(
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            );
            let picked = _mm256_shuffle_epi8(q, pick);
            let lo128 = _mm256_castsi256_si128(picked);
            let hi128 = _mm256_extracti128_si256(picked, 1);
            let merged = _mm_unpacklo_epi32(lo128, hi128);
            _mm_storel_epi64(dst as *mut __m128i, merged);
        }
    }

    /// AVX-512 `f32x16` tier (requires `avx512f` only).
    #[derive(Clone, Copy)]
    pub struct F32x16(__m512);

    impl F32Vector for F32x16 {
        const WIDTH: usize = 16;

        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            F32x16(_mm512_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm512_storeu_ps(ptr, self.0);
        }

        #[inline(always)]
        unsafe fn load_i32_scaled(ptr: *const i32, scale: f32) -> Self {
            let v = _mm512_cvtepi32_ps(_mm512_loadu_si512(ptr as *const _));
            F32x16(_mm512_mul_ps(v, _mm512_set1_ps(scale)))
        }

        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            F32x16(_mm512_set1_ps(x))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            F32x16(_mm512_setzero_ps())
        }

        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            F32x16(_mm512_mul_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            F32x16(_mm512_add_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            F32x16(_mm512_max_ps(self.0, rhs.0))
        }

        #[inline(always)]
        unsafe fn quantize_u8(self, alpha: f32, offset: i32, dst: *mut u8) {
            let scaled = _mm512_mul_ps(self.0, _mm512_set1_ps(alpha));
            let hi = _mm512_set1_ps(QMAX as f32);
            let lo = _mm512_set1_ps(-(QMAX as f32));
            let clamped = _mm512_max_ps(_mm512_min_ps(scaled, hi), lo);
            let q = _mm512_add_epi32(_mm512_cvtps_epi32(clamped), _mm512_set1_epi32(offset));
            // `vpmovdb` truncates each i32 lane to its low byte — exactly
            // the scalar `q as u8` wrap.
            let bytes = _mm512_cvtepi32_epi8(q);
            _mm_storeu_si128(dst as *mut __m128i, bytes);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{F32x16, F32x8};

// -- tiered lane helpers -------------------------------------------------
//
// Vectorized twins of the scalar `cast.rs` conversions, dispatched on
// `VecTier` like `dpbusd` is on `SimdTier`. Bitwise identical to the
// scalar versions for finite inputs (the executors' correctness bar).

#[inline(always)]
unsafe fn quantize_chunks<V: F32Vector>(src: &[f32], alpha: f32, offset: i32, dst: &mut [u8]) {
    let n = src.len();
    let main = n - n % V::WIDTH;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let mut i = 0;
    while i < main {
        V::load(sp.add(i)).quantize_u8(alpha, offset, dp.add(i));
        i += V::WIDTH;
    }
    while i < n {
        F32x1::load(sp.add(i)).quantize_u8(alpha, offset, dp.add(i));
        i += 1;
    }
}

#[inline(always)]
unsafe fn dequantize_chunks<V: F32Vector>(src: &[i32], inv_alpha: f32, dst: &mut [f32]) {
    let n = src.len();
    let main = n - n % V::WIDTH;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let mut i = 0;
    while i < main {
        V::load_i32_scaled(sp.add(i), inv_alpha).store(dp.add(i));
        i += V::WIDTH;
    }
    while i < n {
        F32x1::load_i32_scaled(sp.add(i), inv_alpha).store(dp.add(i));
        i += 1;
    }
}

#[inline(always)]
unsafe fn requantize_chunks<V: F32Vector>(src: &[i32], alpha: f32, offset: i32, dst: &mut [u8]) {
    let n = src.len();
    let main = n - n % V::WIDTH;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // cvt·1.0 is exact, so this is `(x as f32 * alpha)` re-rounded
        // identically to the scalar down-scaling loop.
        V::load_i32_scaled(sp.add(i), 1.0).quantize_u8(alpha, offset, dp.add(i));
        i += V::WIDTH;
    }
    while i < n {
        F32x1::load_i32_scaled(sp.add(i), 1.0).quantize_u8(alpha, offset, dp.add(i));
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod dispatch_x86 {
    use super::*;

    #[target_feature(enable = "avx512f")]
    pub unsafe fn quantize_avx512(src: &[f32], alpha: f32, offset: i32, dst: &mut [u8]) {
        quantize_chunks::<F32x16>(src, alpha, offset, dst);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_avx2(src: &[f32], alpha: f32, offset: i32, dst: &mut [u8]) {
        quantize_chunks::<F32x8>(src, alpha, offset, dst);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn dequantize_avx512(src: &[i32], inv_alpha: f32, dst: &mut [f32]) {
        dequantize_chunks::<F32x16>(src, inv_alpha, dst);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dequantize_avx2(src: &[i32], inv_alpha: f32, dst: &mut [f32]) {
        dequantize_chunks::<F32x8>(src, inv_alpha, dst);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn requantize_avx512(src: &[i32], alpha: f32, offset: i32, dst: &mut [u8]) {
        requantize_chunks::<F32x16>(src, alpha, offset, dst);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn requantize_avx2(src: &[i32], alpha: f32, offset: i32, dst: &mut [u8]) {
        requantize_chunks::<F32x8>(src, alpha, offset, dst);
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn count_non_finite_avx512(values: &[f32]) -> u64 {
        count_non_finite_loop(values)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn count_non_finite_avx2(values: &[f32]) -> u64 {
        count_non_finite_loop(values)
    }
}

/// Tier-dispatched [`quantize_f32_lanes_i8`](crate::quantize_f32_lanes_i8):
/// quantize `src` with scale `alpha` (Eq. 4), add the +128 compensation
/// when `compensate`, emit u8.
///
/// # Panics
///
/// Debug-panics when `vt` exceeds the host capability or the slice lengths
/// differ.
#[inline]
pub fn quantize_lanes(vt: VecTier, src: &[f32], alpha: f32, compensate: bool, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(vt <= VecTier::detect(), "vec tier {vt} not supported");
    let offset = if compensate { 128 } else { 0 };
    match vt {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier availability checked above; slices same length.
        VecTier::F32x16 => unsafe { dispatch_x86::quantize_avx512(src, alpha, offset, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        VecTier::F32x8 => unsafe { dispatch_x86::quantize_avx2(src, alpha, offset, dst) },
        // SAFETY: scalar model has no feature requirement.
        _ => unsafe { quantize_chunks::<F32x1>(src, alpha, offset, dst) },
    }
}

/// Tier-dispatched [`dequantize_i32_lanes`](crate::dequantize_i32_lanes)
/// (Eq. 6): `dst = src as f32 * inv_alpha`.
///
/// # Panics
///
/// Debug-panics when `vt` exceeds the host capability or the slice lengths
/// differ.
#[inline]
pub fn dequantize_lanes(vt: VecTier, src: &[i32], inv_alpha: f32, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(vt <= VecTier::detect(), "vec tier {vt} not supported");
    match vt {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier availability checked above; slices same length.
        VecTier::F32x16 => unsafe { dispatch_x86::dequantize_avx512(src, inv_alpha, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        VecTier::F32x8 => unsafe { dispatch_x86::dequantize_avx2(src, inv_alpha, dst) },
        // SAFETY: scalar model has no feature requirement.
        _ => unsafe { dequantize_chunks::<F32x1>(src, inv_alpha, dst) },
    }
}

/// Tier-dispatched re-quantization of integer transform outputs (the
/// down-scaling baseline's ❷ step): `clamp(round(src as f32 · alpha))`
/// plus the +128 compensation when `compensate`, emitted as u8.
///
/// # Panics
///
/// Debug-panics when `vt` exceeds the host capability or the slice lengths
/// differ.
#[inline]
pub fn requantize_i32_lanes(vt: VecTier, src: &[i32], alpha: f32, compensate: bool, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(vt <= VecTier::detect(), "vec tier {vt} not supported");
    let offset = if compensate { 128 } else { 0 };
    match vt {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier availability checked above; slices same length.
        VecTier::F32x16 => unsafe { dispatch_x86::requantize_avx512(src, alpha, offset, dst) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        VecTier::F32x8 => unsafe { dispatch_x86::requantize_avx2(src, alpha, offset, dst) },
        // SAFETY: scalar model has no feature requirement.
        _ => unsafe { requantize_chunks::<F32x1>(src, alpha, offset, dst) },
    }
}

/// NaN / ±inf values among `values` — the store phases' output-health
/// tally, run on values just stored (one output row or pixel, fewer than
/// 2³²) at the tier's vector width.
///
/// # Panics
///
/// Debug-panics when `vt` exceeds the host capability.
#[inline]
pub fn count_non_finite(vt: VecTier, values: &[f32]) -> u64 {
    debug_assert!(vt <= VecTier::detect(), "vec tier {vt} not supported");
    match vt {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier availability checked above.
        VecTier::F32x16 => unsafe { dispatch_x86::count_non_finite_avx512(values) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        VecTier::F32x8 => unsafe { dispatch_x86::count_non_finite_avx2(values) },
        _ => count_non_finite_loop(values),
    }
}

/// The count's one loop, which the compiler vectorizes at the width the
/// calling wrapper enables: summed in a `u32` so the flags stay in vector
/// lanes (a `filter().count()` widens each to `usize`).
#[inline(always)]
fn count_non_finite_loop(values: &[f32]) -> u64 {
    u64::from(values.iter().map(|v| u32::from(!v.is_finite())).sum::<u32>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::{dequantize_i32_lanes, quantize_f32_lanes_i8};

    fn pattern_f32(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Mix of in-range, boundary and saturating magnitudes.
                ((s % 4001) as f32 - 2000.0) / 7.0
            })
            .collect()
    }

    #[test]
    fn tier_ordering_and_mapping() {
        assert!(VecTier::Scalar < VecTier::F32x8);
        assert!(VecTier::F32x8 < VecTier::F32x16);
        assert_eq!(VecTier::for_simd(SimdTier::Scalar), VecTier::Scalar);
        assert_eq!(VecTier::for_simd(SimdTier::Avx2), VecTier::F32x8);
        assert_eq!(VecTier::for_simd(SimdTier::Avx512Vnni), VecTier::F32x16);
        let avail = VecTier::available();
        assert_eq!(*avail.last().unwrap(), VecTier::Scalar);
        for w in avail.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(VecTier::Scalar.width(), 1);
        assert_eq!(VecTier::F32x8.width(), 8);
        assert_eq!(VecTier::F32x16.to_string(), "f32x16");
    }

    #[test]
    fn quantize_matches_scalar_spec_all_tiers() {
        // Lengths straddle every chunk boundary (tails of 0..width-1).
        for len in [1usize, 7, 8, 15, 16, 17, 31, 64, 67] {
            let src = pattern_f32(len, len as u64);
            for compensate in [true, false] {
                let mut want = vec![0u8; len];
                quantize_f32_lanes_i8(&src, 12.7, compensate, &mut want);
                for vt in VecTier::available() {
                    let mut got = vec![0u8; len];
                    quantize_lanes(vt, &src, 12.7, compensate, &mut got);
                    assert_eq!(got, want, "vt={vt} len={len} compensate={compensate}");
                }
            }
        }
    }

    #[test]
    fn quantize_boundary_values_all_tiers() {
        // Exact clamp-boundary and tie cases — where clamp-then-round vs
        // round-then-clamp could diverge if mis-implemented.
        let src = [
            126.5f32, 127.0, 127.4, 127.49, 127.5, 127.6, 128.0, 1000.0, -126.5, -127.0, -127.5,
            -127.6, -128.0, -1000.0, 0.5, -0.5, 1.5, 2.5, 0.0, -0.0,
        ];
        let mut want = vec![0u8; src.len()];
        quantize_f32_lanes_i8(&src, 1.0, true, &mut want);
        for vt in VecTier::available() {
            let mut got = vec![0u8; src.len()];
            quantize_lanes(vt, &src, 1.0, true, &mut got);
            assert_eq!(got, want, "vt={vt}");
        }
    }

    #[test]
    fn quantize_saturates_non_finite_alike_on_every_tier() {
        // NaN (either sign) and ±inf in the vector body and in the scalar
        // tail: the bound operand of `minps`/`maxps` wins, so NaN → +127.
        let poisons = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let expect = [127i32, 127, 127, -127];
        for len in [1usize, 7, 8, 17, 64, 67] {
            let mut src = pattern_f32(len, len as u64 + 3);
            for at in (0..len).step_by(3) {
                src[at] = poisons[at / 3 % poisons.len()];
            }
            for compensate in [true, false] {
                let offset = if compensate { 128 } else { 0 };
                let mut want = vec![0u8; len];
                quantize_f32_lanes_i8(&src, 12.7, compensate, &mut want);
                for at in (0..len).step_by(3) {
                    assert_eq!(want[at], (expect[at / 3 % poisons.len()] + offset) as u8, "scalar spec at {at}");
                }
                for vt in VecTier::available() {
                    let mut got = vec![0u8; len];
                    quantize_lanes(vt, &src, 12.7, compensate, &mut got);
                    assert_eq!(got, want, "vt={vt} len={len} compensate={compensate}");
                }
            }
        }
    }

    #[test]
    fn uncompensated_quantize_is_the_spatial_pre_pass_spelling_on_every_tier() {
        // The spatial INT8 pre-pass once rounded each value with
        // `(x·α).round_ties_even().clamp(±127) as i8`; `quantize_lanes`
        // without compensation, read as i8, must be that bit for bit on
        // finite inputs — ties at ±k.5 and ±127.5, values past the clamp —
        // and so must the saturation count read off its bytes.
        let mut src: Vec<f32> = (-130..=130).flat_map(|k| [k as f32, k as f32 + 0.5, -(k as f32) - 0.5]).collect();
        src.extend([127.5, -127.5, 127.49, -127.49, 128.0, -128.0, 1e9, -1e9, f32::MAX, f32::MIN, 0.0, -0.0]);
        src.extend(pattern_f32(203, 11));
        for alpha in [1.0f32, 0.5, 12.7] {
            let want: Vec<i8> = src.iter().map(|&x| (x * alpha).round_ties_even().clamp(-127.0, 127.0) as i8).collect();
            for vt in VecTier::available() {
                let mut got = vec![0u8; src.len()];
                quantize_lanes(vt, &src, alpha, false, &mut got);
                let got: Vec<i8> = got.iter().map(|&q| q as i8).collect();
                assert_eq!(got, want, "vt={vt} alpha={alpha}");
                assert_eq!(lowino_quant::count_saturated_i8(&got), lowino_quant::count_saturated_i8(&want));
            }
        }
    }

    #[test]
    fn dequantize_matches_scalar_spec_all_tiers() {
        for len in [1usize, 5, 16, 33, 64] {
            let src: Vec<i32> = (0..len as i32).map(|i| i * 7919 - 1000).collect();
            let mut want = vec![0f32; len];
            dequantize_i32_lanes(&src, 0.0317, &mut want);
            for vt in VecTier::available() {
                let mut got = vec![0f32; len];
                dequantize_lanes(vt, &src, 0.0317, &mut got);
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "vt={vt} len={len}"
                );
            }
        }
    }

    #[test]
    fn max_with_zero_matches_relu_spec_all_tiers() {
        // The fused ReLU epilogue is `v.max(zero())`; its contract is the
        // scalar `if v > 0.0 { v } else { 0.0 }` — including the signed-zero
        // case (`-0.0` → `+0.0`, bitwise).
        let src = [1.5f32, -2.0, 0.0, -0.0, 3.25e-20, -3.25e-20, 127.0, -127.0];
        let want: Vec<u32> = src
            .iter()
            .map(|&x| (if x > 0.0 { x } else { 0.0 }).to_bits())
            .collect();
        // Scalar model.
        let got: Vec<u32> = src
            .iter()
            .map(|&x| unsafe { F32x1(x).max(F32x1::zero()) }.0.to_bits())
            .collect();
        assert_eq!(got, want, "scalar");
        // Vector tiers, checked through the generic relu-ing copy below.
        unsafe fn relu_copy<V: F32Vector>(src: &[f32], dst: &mut [f32]) {
            let mut i = 0;
            while i + V::WIDTH <= src.len() {
                V::load(src.as_ptr().add(i))
                    .max(V::zero())
                    .store(dst.as_mut_ptr().add(i));
                i += V::WIDTH;
            }
            while i < src.len() {
                F32x1::load(src.as_ptr().add(i))
                    .max(F32x1::zero())
                    .store(dst.as_mut_ptr().add(i));
                i += 1;
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            unsafe fn relu_avx2(src: &[f32], dst: &mut [f32]) {
                relu_copy::<F32x8>(src, dst);
            }
            #[target_feature(enable = "avx512f")]
            unsafe fn relu_avx512(src: &[f32], dst: &mut [f32]) {
                relu_copy::<F32x16>(src, dst);
            }
            for vt in VecTier::available() {
                let mut got = vec![0f32; src.len()];
                // SAFETY: tier reported available by `VecTier::available`.
                match vt {
                    VecTier::F32x16 => unsafe { relu_avx512(&src, &mut got) },
                    VecTier::F32x8 => unsafe { relu_avx2(&src, &mut got) },
                    VecTier::Scalar => unsafe { relu_copy::<F32x1>(&src, &mut got) },
                }
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "vt={vt}");
            }
        }
    }

    #[test]
    fn count_non_finite_matches_a_scan_all_tiers() {
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN];
        // Lengths straddle every chunk boundary; the poisons land in the
        // vector body and in the scalar tail.
        for len in [0usize, 1, 7, 8, 15, 16, 17, 64, 67, 256] {
            let mut src = pattern_f32(len, len as u64);
            for (i, at) in (0..len).step_by(5).enumerate() {
                src[at] = poisons[i % poisons.len()];
            }
            if let Some(last) = src.last_mut() {
                *last = f32::MAX;
            }
            let want = src.iter().filter(|v| !v.is_finite()).count() as u64;
            for vt in VecTier::available() {
                assert_eq!(count_non_finite(vt, &src), want, "vt={vt} len={len}");
            }
        }
    }

    #[test]
    fn requantize_matches_downscale_loop_all_tiers() {
        // The scalar spelling used by the down-scaling executor.
        let src: Vec<i32> = (-40..41).map(|i| i * 431).collect();
        let alpha = 0.01f32;
        let want: Vec<u8> = src
            .iter()
            .map(|&sv| {
                let scaled = (sv as f32 * alpha).round_ties_even().clamp(-127.0, 127.0);
                (scaled as i32 + 128) as u8
            })
            .collect();
        for vt in VecTier::available() {
            let mut got = vec![0u8; src.len()];
            requantize_i32_lanes(vt, &src, alpha, true, &mut got);
            assert_eq!(got, want, "vt={vt}");
        }
    }
}
