//! The symmetric linear quantizer of paper Eq. 4–6.

/// Symmetric INT8 quantization parameters.
///
/// `Q(x) = S_INT8(α·x)` with `α = (2^{b−1}−1)/τ = 127/τ` (Eq. 4–5) and
/// de-quantization `Q'(q) = α⁻¹·q` (Eq. 6). Zero-point is always 0
/// (symmetric); the unsigned-operand requirement of `vpdpbusd` is handled
/// separately by the ±128 compensation (paper §4.3.3), not by an asymmetric
/// zero-point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    /// The scale `α` (multiplied when quantizing).
    pub alpha: f32,
}

impl QParams {
    /// Identity-ish degenerate quantizer used when a tensor is all zeros.
    pub const UNIT: QParams = QParams { alpha: 1.0 };

    /// From a clipping threshold `τ`: `α = 127/τ` (Eq. 5 with `b = 8`).
    ///
    /// A non-positive or non-finite `τ` yields the degenerate unit scale
    /// (the tensor is all zeros — nothing to represent).
    pub fn from_threshold(tau: f32) -> Self {
        if tau > 0.0 && tau.is_finite() {
            QParams { alpha: 127.0 / tau }
        } else {
            QParams::UNIT
        }
    }

    /// From data: `τ = ‖X‖∞` (the non-calibrated fallback mentioned in §3).
    pub fn from_max_abs(data: &[f32]) -> Self {
        let m = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        Self::from_threshold(m)
    }

    /// The threshold `τ` this scale represents.
    pub fn tau(&self) -> f32 {
        127.0 / self.alpha
    }

    /// Quantize one value (Eq. 4).
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        lowino_simd_free_saturate(x * self.alpha)
    }

    /// De-quantize one value (Eq. 6).
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) / self.alpha
    }

    /// Combined de-quantization scale of a product of two quantized
    /// operands: `1/(α_V·α_U)` — what the output transform multiplies the
    /// INT32 GEMM result by.
    pub fn product_dequant(&self, other: &QParams) -> f32 {
        1.0 / (self.alpha * other.alpha)
    }
}

/// Local copy of the saturating conversion (kept dependency-free; the
/// behaviour is pinned to `lowino_simd::saturate_to_i8` by a test in the
/// conv crate).
#[inline]
fn lowino_simd_free_saturate(x: f32) -> i8 {
    // Ties-to-even, matching `lowino_simd::saturate_to_i8` (cvtps2dq
    // semantics); the pinning test lives in the conv crate.
    x.round_ties_even().clamp(-127.0, 127.0) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_scale() {
        let q = QParams::from_threshold(2.0);
        assert!((q.alpha - 63.5).abs() < 1e-6);
        assert!((q.tau() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn quantize_saturates_at_threshold() {
        let q = QParams::from_threshold(1.0);
        assert_eq!(q.quantize(1.0), 127);
        assert_eq!(q.quantize(-1.0), -127);
        assert_eq!(q.quantize(5.0), 127);
        assert_eq!(q.quantize(-5.0), -127);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn round_trip_error_bound() {
        let q = QParams::from_threshold(4.0);
        for i in -400..=400 {
            let x = i as f32 / 100.0;
            let e = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(e <= 0.5 / q.alpha + 1e-6, "x={x} e={e}");
        }
    }

    #[test]
    fn degenerate_thresholds() {
        assert_eq!(QParams::from_threshold(0.0), QParams::UNIT);
        assert_eq!(QParams::from_threshold(-1.0), QParams::UNIT);
        assert_eq!(QParams::from_threshold(f32::NAN), QParams::UNIT);
        assert_eq!(QParams::from_threshold(f32::INFINITY), QParams::UNIT);
        assert_eq!(QParams::from_max_abs(&[]), QParams::UNIT);
        assert_eq!(QParams::from_max_abs(&[0.0, 0.0]), QParams::UNIT);
    }

    #[test]
    fn from_max_abs_uses_linf() {
        let q = QParams::from_max_abs(&[0.5, -3.0, 2.0]);
        assert!((q.tau() - 3.0).abs() < 1e-6);
        assert_eq!(q.quantize(-3.0), -127);
    }

    #[test]
    fn slice_round_trip() {
        let q = QParams::from_threshold(10.0);
        let src = [0.0f32, 1.0, -2.5, 9.99, -10.0];
        for a in src {
            let b = q.dequantize(q.quantize(a));
            assert!((a - b).abs() <= 0.5 / q.alpha + 1e-6);
        }
    }

    #[test]
    fn product_dequant() {
        let a = QParams::from_threshold(1.0); // α = 127
        let b = QParams::from_threshold(127.0); // α = 1
        assert!((a.product_dequant(&b) - 1.0 / 127.0).abs() < 1e-9);
    }
}
