//! The `vpdpbusd` primitive (paper Fig. 1): u8 × i8 dot-product-accumulate.
//!
//! One call processes one 512-bit register worth of operands: 64 unsigned
//! bytes, 64 signed bytes, 16 `i32` accumulator lanes. Lane `i` accumulates
//! the dot product of bytes `4i..4i+4`.
//!
//! All three tiers produce bit-identical results; the scalar tier is the
//! executable specification.

use crate::dispatch::SimdTier;

/// Scalar reference model of `vpdpbusd` — the executable specification.
///
/// `acc[i] += Σ_{j<4} a[4i+j]·b[4i+j]`. The per-call dot product is exact in
/// `i32` (maximum magnitude `4·255·128 = 130 560`), and the accumulator add
/// wraps on overflow — `vpdpbusd` accumulates with two's-complement `i32`
/// adds and does not saturate, so long accumulation chains wrap identically
/// on every tier.
#[inline]
pub fn dpbusd_scalar(acc: &mut [i32; 16], a: &[u8; 64], b: &[i8; 64]) {
    for i in 0..16 {
        let mut s = 0i32;
        for j in 0..4 {
            s += i32::from(a[4 * i + j]) * i32::from(b[4 * i + j]);
        }
        acc[i] = acc[i].wrapping_add(s);
    }
}

/// Native AVX-512 VNNI implementation.
///
/// # Safety
///
/// The caller must ensure `avx512f`, `avx512bw` and `avx512vnni` are
/// available (use [`SimdTier::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
pub unsafe fn dpbusd_avx512(acc: &mut [i32; 16], a: &[u8; 64], b: &[i8; 64]) {
    use std::arch::x86_64::*;
    let va = _mm512_loadu_si512(a.as_ptr() as *const _);
    let vb = _mm512_loadu_si512(b.as_ptr() as *const _);
    let vc = _mm512_loadu_si512(acc.as_ptr() as *const _);
    let vd = _mm512_dpbusd_epi32(vc, va, vb);
    _mm512_storeu_si512(acc.as_mut_ptr() as *mut _, vd);
}

/// Exact AVX2 emulation of `vpdpbusd`.
///
/// Widens u8→i16 (zero-extend) and i8→i16 (sign-extend) before `vpmaddwd`,
/// so — unlike the common `vpmaddubsw` shortcut — no intermediate INT16
/// saturation can occur and the result is bit-identical to VNNI.
///
/// # Safety
///
/// The caller must ensure `avx2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn dpbusd_avx2(acc: &mut [i32; 16], a: &[u8; 64], b: &[i8; 64]) {
    use std::arch::x86_64::*;

    // Processes 32 bytes (output lanes `8h..8h+8`) per iteration.
    #[inline]
    unsafe fn half(a: *const u8, b: *const i8) -> __m256i {
        // Chunk 0: bytes 0..16 -> lanes 0..4; chunk 1: bytes 16..32 -> 4..8.
        let a0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a as *const _));
        let a1 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a.add(16) as *const _));
        let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b as *const _));
        let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(16) as *const _));
        // madd: i32 lane j = a[2j]·b[2j] + a[2j+1]·b[2j+1] (exact, widened).
        let m0 = _mm256_madd_epi16(a0, b0);
        let m1 = _mm256_madd_epi16(a1, b1);
        // hadd interleaves 128-bit lanes:
        //   [l0, l1, l4, l5 | l2, l3, l6, l7]  (li = output lane i)
        let h = _mm256_hadd_epi32(m0, m1);
        // Restore natural order.
        let idx = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        _mm256_permutevar8x32_epi32(h, idx)
    }

    let lo = half(a.as_ptr(), b.as_ptr());
    let hi = half(a.as_ptr().add(32), b.as_ptr().add(32));
    let acc_lo = _mm256_loadu_si256(acc.as_ptr() as *const _);
    let acc_hi = _mm256_loadu_si256(acc.as_ptr().add(8) as *const _);
    _mm256_storeu_si256(acc.as_mut_ptr() as *mut _, _mm256_add_epi32(acc_lo, lo));
    _mm256_storeu_si256(
        acc.as_mut_ptr().add(8) as *mut _,
        _mm256_add_epi32(acc_hi, hi),
    );
}

/// Tier-dispatched `vpdpbusd`.
///
/// Safe wrapper: passing a tier the host does not support is a programming
/// error and will panic in debug builds; use [`SimdTier::detect`] or
/// [`SimdTier::available`] to obtain valid tiers.
#[inline]
pub fn dpbusd(tier: SimdTier, acc: &mut [i32; 16], a: &[u8; 64], b: &[i8; 64]) {
    debug_assert!(tier <= SimdTier::detect(), "tier {tier} not supported");
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: tier selection guarantees the features are present.
        SimdTier::Avx512Vnni => unsafe { dpbusd_avx512(acc, a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTier::Avx2 => unsafe { dpbusd_avx2(acc, a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdTier::Avx512Vnni | SimdTier::Avx2 => dpbusd_scalar(acc, a, b),
        SimdTier::Scalar => dpbusd_scalar(acc, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(seed: u64) -> ([u8; 64], [i8; 64]) {
        // Small xorshift so tests are deterministic without rand.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut a = [0u8; 64];
        let mut b = [0i8; 64];
        for i in 0..64 {
            a[i] = (next() & 0xFF) as u8;
            b[i] = (next() & 0xFF) as u8 as i8;
        }
        (a, b)
    }

    #[test]
    fn scalar_matches_fig1_semantics() {
        // Fig. 1: D_i = A[4i..4i+4]·B[4i..4i+4] + C_i.
        let mut a = [0u8; 64];
        let mut b = [0i8; 64];
        // Lane 0: 1·10 + 2·20 + 3·(-30) + 4·40 = 120.
        a[0..4].copy_from_slice(&[1, 2, 3, 4]);
        b[0..4].copy_from_slice(&[10, 20, -30, 40]);
        // Lane 15: 255 · -128 · 4 = -130560 (extreme magnitudes, no overflow).
        a[60..64].copy_from_slice(&[255; 4]);
        b[60..64].copy_from_slice(&[-128; 4]);
        let mut acc = [7i32; 16];
        dpbusd_scalar(&mut acc, &a, &b);
        assert_eq!(acc[0], 7 + 120);
        assert_eq!(acc[1], 7);
        assert_eq!(acc[15], 7 - 130_560);
    }

    #[test]
    fn all_tiers_bit_identical() {
        for tier in SimdTier::available() {
            for seed in 0..64u64 {
                let (a, b) = pattern(seed);
                let mut want = [seed as i32; 16];
                let mut got = [seed as i32; 16];
                dpbusd_scalar(&mut want, &a, &b);
                dpbusd(tier, &mut got, &a, &b);
                assert_eq!(got, want, "tier={tier} seed={seed}");
            }
        }
    }

    #[test]
    fn extreme_operands_no_saturation() {
        // This is where vpmaddubsw-based emulations break: pair sums exceed
        // i16::MAX. Our AVX2 tier must stay exact.
        let a = [255u8; 64];
        let b = [127i8; 64];
        for tier in SimdTier::available() {
            let mut acc = [0i32; 16];
            dpbusd(tier, &mut acc, &a, &b);
            assert_eq!(acc, [4 * 255 * 127; 16], "tier={tier}");
        }
        let b = [-128i8; 64];
        for tier in SimdTier::available() {
            let mut acc = [0i32; 16];
            dpbusd(tier, &mut acc, &a, &b);
            assert_eq!(acc, [4 * 255 * -128; 16], "tier={tier}");
        }
    }

    #[test]
    fn accumulation_chains() {
        let (a, b) = pattern(42);
        for tier in SimdTier::available() {
            let mut acc = [0i32; 16];
            for _ in 0..100 {
                dpbusd(tier, &mut acc, &a, &b);
            }
            let mut want = [0i32; 16];
            for _ in 0..100 {
                dpbusd_scalar(&mut want, &a, &b);
            }
            assert_eq!(acc, want, "tier={tier}");
        }
    }
}
