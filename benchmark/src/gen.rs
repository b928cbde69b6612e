//! Seeded inputs. Everything the program sees — weights, activations,
//! request bodies, arrival schedules — derives from `--seed` through
//! `lowino_testkit::Rng`, one independent stream per named use.

use lowino::{ConvShape, Tensor4};
use lowino_testkit::{splitmix64, Rng};

/// An independent generator for stream `stream` of run seed `seed`.
pub fn rng(seed: u64, stream: u64) -> Rng {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Rng::seed_from_u64(splitmix64(&mut s))
}

/// Bell-shaped activations, the distribution the calibrators were built
/// around (sum of four centred uniforms).
pub fn activations(n: usize, c: usize, h: usize, w: usize, rng: &mut Rng) -> Tensor4 {
    let mut t = Tensor4::zeros(n, c, h, w);
    for v in t.data_mut() {
        *v = rng.bellish(1.0);
    }
    t
}

/// He-scaled uniform `K×C×r×r` weights.
pub fn weights(spec: &ConvShape, rng: &mut Rng) -> Tensor4 {
    let scale = (2.0 / (spec.in_c * spec.r * spec.r) as f32).sqrt();
    let mut t = Tensor4::zeros(spec.out_c, spec.in_c, spec.r, spec.r);
    for v in t.data_mut() {
        *v = rng.f32_range(-1.0, 1.0) * scale;
    }
    t
}

/// A named 3×3 same-padding stride-1 layer of the paper's Table 2, with the
/// batch or spatial size already divided as the workload tables state.
pub struct NamedShape {
    pub name: &'static str,
    pub spec: ConvShape,
}

/// `(name, batch, C, K, H=W)`.
pub fn table2(name: &'static str, batch: usize, c: usize, k: usize, hw: usize) -> NamedShape {
    let spec = ConvShape::same(batch, c, k, hw, 3)
        .validate()
        .expect("Table 2 layer is valid");
    NamedShape { name, spec }
}

/// Squared L2 norms `(‖got − want‖², ‖want‖²)`. On the storage of two
/// blocked images of equal dims the padding lanes are zero on both sides,
/// so they add nothing.
pub fn sq_err(got: &[f32], want: &[f32]) -> (f64, f64) {
    assert_eq!(
        got.len(),
        want.len(),
        "comparing outputs of different sizes"
    );
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &w) in got.iter().zip(want) {
        let d = g as f64 - w as f64;
        num += d * d;
        den += w as f64 * w as f64;
    }
    (num, den)
}

/// Relative L2 error from accumulated squared norms; a non-finite output
/// reads +inf so it can never pass a tolerance.
pub fn rel_err((num, den): (f64, f64)) -> f64 {
    if !num.is_finite() || den <= 0.0 {
        return f64::INFINITY;
    }
    (num / den).sqrt()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A fixed sparse fingerprint of an output: every `stride`-th value's bit
/// pattern. Outputs are bitwise repeatable for fixed inputs, so comparing
/// fingerprints checks every timed op without a full pass over memory.
pub fn fingerprint(data: &[f32]) -> impl Iterator<Item = u32> + '_ {
    let stride = (data.len() / 1024).max(1);
    data.iter().step_by(stride).map(|v| v.to_bits())
}
