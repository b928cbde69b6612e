//! Saturating conversions between FP32 and low-precision integers.
//!
//! Implements the `S_INT8` conversion of paper Eq. 4: round to nearest
//! (ties to even — `cvtps2dq` semantics), then clamp to the symmetric
//! INT8 range `[-127, 127]` implied by Eq. 5's `2^{b-1} - 1` scaling.

/// Symmetric INT8 maximum used throughout (`2^{8-1} - 1`, paper Eq. 5).
pub const QMAX: i32 = 127;

/// Saturating FP32 → INT8 conversion (`S_INT8` in paper Eq. 4).
///
/// Rounds to nearest, ties to even — the rounding of the x86 `cvtps2dq`
/// conversion every production INT8 pipeline uses, and the form that
/// vectorises to `vroundps`. Non-finite inputs saturate (`NaN → 0`, the
/// behaviour of `as` casts; the lane quantizers below, which the executors
/// run, saturate `NaN` to +127 like their vector tiers).
#[inline]
pub fn saturate_to_i8(x: f32) -> i8 {
    // clamp handles ±∞; NaN propagates and `as` maps it to 0.
    x.round_ties_even().clamp(-(QMAX as f32), QMAX as f32) as i8
}

/// Saturating i32 → INT8 (used when requantising integer intermediates in
/// the down-scaling baseline).
#[inline]
pub fn saturate_i32_to_i8(x: i32) -> i8 {
    x.clamp(-QMAX, QMAX) as i8
}

/// Quantise 64 f32 lanes to i8 with scale `alpha` (`Q(x) = S_INT8(α·x)`,
/// paper Eq. 4), then add the +128 compensation and emit u8 (paper §4.2.1:
/// *"we add 128 to the transformed input after quantization … so as to
/// guarantee all the data can be represented by UINT8"*).
///
/// The whole group is one cache line — the unit the input transform scatters
/// with non-temporal stores.
///
/// Non-finite values saturate like the vector tiers' (see [`quantize_one`]):
/// `NaN` and `+∞` to +127, `−∞` to −127.
#[inline]
pub fn quantize_f32_lanes_i8(src: &[f32], alpha: f32, compensate: bool, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    let offset = if compensate { 128i32 } else { 0 };
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = quantize_one(s, alpha, offset); // ∈ [1, 255] when compensating
    }
}

/// One lane of the quantize epilogue, spelled in the vector tiers' order:
/// `maxps(minps(x·α, 127), −127)`, then the round-to-even convert, plus
/// `offset`, low byte. `minps`/`maxps` return their second operand when
/// either is NaN, so the bound wins and NaN saturates to +127 on every tier.
/// For finite `x·α` this equals round-then-clamp: rounding can only cross
/// the clamp boundary onto the boundary itself.
#[inline(always)]
pub(crate) fn quantize_one(x: f32, alpha: f32, offset: i32) -> u8 {
    let (hi, lo) = (QMAX as f32, -(QMAX as f32));
    let s = x * alpha;
    let s = if s < hi { s } else { hi };
    let s = if s > lo { s } else { lo };
    (s.round_ties_even() as i32 + offset) as u8
}

/// De-quantise 64 i32 GEMM lanes to f32 with the reciprocal scale
/// (`Q'(x) = α⁻¹·x`, paper Eq. 6). `inv_alpha` is `1/(α_V·α_U)`.
#[inline]
pub fn dequantize_i32_lanes(src: &[i32], inv_alpha: f32, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s as f32 * inv_alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_bounds() {
        assert_eq!(saturate_to_i8(1000.0), 127);
        assert_eq!(saturate_to_i8(-1000.0), -127);
        assert_eq!(saturate_to_i8(127.4), 127);
        assert_eq!(saturate_to_i8(127.6), 127);
        assert_eq!(saturate_to_i8(-127.6), -127);
        assert_eq!(saturate_to_i8(-128.0), -127);
        assert_eq!(saturate_to_i8(f32::INFINITY), 127);
        assert_eq!(saturate_to_i8(f32::NEG_INFINITY), -127);
        assert_eq!(saturate_to_i8(f32::NAN), 0);
    }

    #[test]
    fn rounding_ties_to_even() {
        // cvtps2dq semantics: ties go to the even integer.
        assert_eq!(saturate_to_i8(0.5), 0);
        assert_eq!(saturate_to_i8(-0.5), 0);
        assert_eq!(saturate_to_i8(1.5), 2);
        assert_eq!(saturate_to_i8(2.5), 2);
        assert_eq!(saturate_to_i8(0.51), 1);
        assert_eq!(saturate_to_i8(0.49), 0);
    }

    #[test]
    fn i32_saturation() {
        assert_eq!(saturate_i32_to_i8(i32::MAX), 127);
        assert_eq!(saturate_i32_to_i8(i32::MIN), -127);
        assert_eq!(saturate_i32_to_i8(-5), -5);
        assert_eq!(saturate_i32_to_i8(127), 127);
        assert_eq!(saturate_i32_to_i8(128), 127);
    }

    #[test]
    fn quantize_lanes_with_compensation() {
        let src = [0.0f32, 1.0, -1.0, 0.004, 10.0];
        let mut dst = [0u8; 5];
        // alpha = 127 / 10 -> 10.0 maps to 127.
        quantize_f32_lanes_i8(&src, 12.7, true, &mut dst);
        assert_eq!(dst[0], 128); // 0 + 128
        assert_eq!(dst[1], 141); // round(12.7) = 13, +128
        assert_eq!(dst[2], 115); // -13 + 128
        assert_eq!(dst[3], 128); // rounds to 0
        assert_eq!(dst[4], 255); // saturated 127 + 128 (10*12.7 = 127)
    }

    #[test]
    fn quantize_without_compensation_wraps_to_u8_bits() {
        let src = [-1.0f32];
        let mut dst = [0u8; 1];
        quantize_f32_lanes_i8(&src, 1.0, false, &mut dst);
        // -1 as u8 bit pattern.
        assert_eq!(dst[0] as i8, -1);
    }

    #[test]
    fn dequantize_round_trip_error_bounded() {
        // |dequant(quant(x)) - x| <= 0.5/alpha for in-range x.
        let alpha = 127.0 / 3.0;
        for i in -300..=300 {
            let x = i as f32 / 100.0; // [-3, 3]
            let q = saturate_to_i8(x * alpha);
            let mut back = [0f32];
            dequantize_i32_lanes(&[i32::from(q)], 1.0 / alpha, &mut back);
            assert!(
                (back[0] - x).abs() <= 0.5 / alpha + 1e-6,
                "x={x} back={}",
                back[0]
            );
        }
    }
}
