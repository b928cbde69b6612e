//! Saturation accounting for quantized tensors.
//!
//! The linear quantizer (Eq. 4) clamps to the symmetric INT8 range
//! `[−127, 127]`; how often that clamp actually fires is the quantity
//! LANCE-style analyses track to judge whether a threshold `τ` is too
//! tight. These helpers count clamp hits in already-quantized buffers so
//! the executors can feed the `quant/*` trace counters without the quant
//! crate growing a trace dependency (callers emit the counts).
//!
//! Two encodings appear in the pipeline:
//!
//! * signed `i8` values straight from the quantizer — saturated at `±127`;
//! * `+128`-compensated `u8` GEMM panel values (Eq. 9) — the same clamp
//!   bounds after the shift, i.e. `1` (−127) and `255` (+127). `0` would be
//!   −128, which the symmetric quantizer never produces.

/// Count values in a `+128`-compensated u8 buffer that sit on the clamp
/// bounds (`1` ⇔ −127, `255` ⇔ +127).
pub fn count_saturated_u8(q: &[u8]) -> u64 {
    count_hits(q, |x| x == 1 || x == 255)
}

/// Count values in a signed i8 buffer that sit on the clamp bounds (±127).
pub fn count_saturated_i8(q: &[i8]) -> u64 {
    count_hits(q, |x| x == 127 || x == -127)
}

/// Elements of `q` satisfying `hit`. Blocks of 255 are summed in a `u8`
/// (which cannot overflow), so the loop vectorizes at a byte per lane; a
/// `filter().count()` widens every element to `usize` first and runs about
/// 8× slower — and these scans cover whole `V` panels per execute (the
/// health check) and every quantized line under tracing.
#[inline]
fn count_hits<T: Copy>(q: &[T], hit: impl Fn(T) -> bool) -> u64 {
    q.chunks(255)
        .map(|block| u64::from(block.iter().map(|&x| u8::from(hit(x))).sum::<u8>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_counts_only_the_compensated_bounds() {
        let q = [0u8, 1, 2, 128, 254, 255, 255, 1];
        // 0 is not a clamp value (−128 is unreachable); 1 and 255 are.
        assert_eq!(count_saturated_u8(&q), 4);
        assert_eq!(count_saturated_u8(&[]), 0);
        // Longer than one 255-element block, every element a hit.
        assert_eq!(count_saturated_u8(&[255u8; 1000]), 1000);
        assert_eq!(count_saturated_i8(&[-127i8; 511]), 511);
    }

    #[test]
    fn i8_counts_both_signs() {
        let q = [0i8, 127, -127, -128, 126, 127];
        // −128 is outside the symmetric range and not a clamp target.
        assert_eq!(count_saturated_i8(&q), 3);
    }

    #[test]
    fn matches_quantizer_clamp_behaviour() {
        use crate::QParams;
        let q = QParams::from_threshold(1.0);
        let vals = [-3.0f32, -1.0, -0.5, 0.0, 0.9, 2.5];
        let quantized: Vec<i8> = vals.iter().map(|&x| q.quantize(x)).collect();
        // Exactly the out-of-range inputs (|x| ≥ τ) land on ±127.
        assert_eq!(count_saturated_i8(&quantized), 3);
        let compensated: Vec<u8> = quantized.iter().map(|&x| (x as i16 + 128) as u8).collect();
        assert_eq!(count_saturated_u8(&compensated), 3);
    }
}
