//! Activation calibration for the quantized convolutions (paper §3, Eq. 7).
//!
//! * [`calibrate_spatial`] — spatial-domain threshold over raw activations,
//!   used by the direct-INT8, down-scaling and up-casting baselines (they
//!   quantize *before* the Winograd transform);
//! * [`calibrate_winograd_domain`] — **LoWino's calibration**: the sample
//!   activations are pushed through the `Bᵀ d B` transform first and the
//!   KL search runs on the *transformed* distribution, so the chosen `τ`
//!   (and hence `α_V`) lives in the Winograd domain where the actual
//!   quantization happens.

use lowino_quant::{calibrate_kl, Histogram, QParams};
use lowino_simd::vecf32::VecTier;
use lowino_simd::SimdTier;
use lowino_tensor::{BlockedImage, ConvShape, LANES};
use lowino_winograd::{TileTransformer, TransformScratch};

use crate::error::ConvError;
use crate::tiles::{gather_patch, tile_coords, tile_origin};

/// Histogram bin count used by all calibrations (TensorRT convention).
const CAL_BINS: usize = 2048;

/// Degenerate-distribution guard shared by all calibrations: a sample set
/// with no finite values, or one that is identically zero, has no dynamic
/// range — the KL search would return `τ = 0` and the resulting scale
/// would silently zero out (or NaN out) every quantized activation. Fail
/// loudly at calibration time instead.
///
/// For per-position calibration the check passes as long as *any* position
/// saw real data (quiet corner positions of a sparse input may legitimately
/// be all-zero). Also carries the `calibrate/samples` fault site so the
/// error path can be exercised with healthy data.
fn check_distribution(what: &str, hists: &[&Histogram]) -> Result<(), ConvError> {
    if lowino_testkit::faults::CALIBRATE_SAMPLES.fire() {
        return Err(ConvError::Calibration(format!(
            "injected fault: calibrate/samples ({what})"
        )));
    }
    if hists.iter().all(|h| h.total() == 0) {
        return Err(ConvError::Calibration(format!(
            "{what}: samples contain no finite values"
        )));
    }
    if hists.iter().all(|h| h.max_abs() == 0.0) {
        return Err(ConvError::Calibration(format!(
            "{what}: samples are identically zero (no dynamic range to calibrate)"
        )));
    }
    Ok(())
}

/// Spatial-domain KL calibration over raw activation samples.
///
/// Only logical channels are histogrammed — the blocked layout's zero
/// padding lanes would otherwise flood the distribution with structural
/// zeros and bias the KL search toward tiny thresholds.
pub fn calibrate_spatial(samples: &[BlockedImage]) -> Result<QParams, ConvError> {
    if samples.is_empty() {
        return Err(ConvError::Calibration("empty sample set".into()));
    }
    let mut hist = Histogram::new(CAL_BINS);
    for s in samples {
        let (b_dim, c_dim, h, w) = s.dims();
        for b in 0..b_dim {
            for cb in 0..s.c_blocks() {
                let real = (c_dim - cb * LANES).min(LANES);
                for y in 0..h {
                    for x in 0..w {
                        hist.record(&s.lanes(b, cb, y, x)[..real]);
                    }
                }
            }
        }
    }
    check_distribution("calibrate_spatial", &[&hist])?;
    Ok(QParams::from_threshold(calibrate_kl(&hist).tau))
}

/// `Bᵀ d B` of one gathered 64-lane patch: `(transformer, d, v, scratch)`.
type TileTransform<'a> = &'a dyn Fn(&TileTransformer, &[f32], &mut [f32], &mut TransformScratch);

/// The production transform of both Winograd-domain calibrations: the
/// lowered tape at the host's tier — bitwise identical to the interpreted
/// [`TileTransformer::input_tile_f32`], so histograms, thresholds and
/// scales do not depend on which one runs.
fn lowered_transform(tt: &TileTransformer, d: &[f32], v: &mut [f32], s: &mut TransformScratch) {
    tt.input_tile_f32_compiled(VecTier::for_simd(SimdTier::detect()), d, v, s);
}

/// Push every tile of every sample through `transform` for `F(m, r)` and
/// hand each transformed `n×n×64` tile to `record` together with its
/// number of real channels (padding lanes are zero and would skew a
/// distribution toward 0, so callers histogram only `..real` of each
/// slot).
fn for_each_transformed_tile(
    spec: &ConvShape,
    m: usize,
    samples: &[BlockedImage],
    transform: TileTransform<'_>,
    mut record: impl FnMut(&[f32], usize),
) -> Result<(), ConvError> {
    if samples.is_empty() {
        return Err(ConvError::Calibration("empty sample set".into()));
    }
    let tt = TileTransformer::new(m, spec.r)?;
    let geom = spec.tiles(m)?;
    let n = geom.n;
    let mut scratch = tt.make_scratch(LANES);
    let mut patch = vec![0f32; n * n * LANES];
    let mut v = vec![0f32; n * n * LANES];
    for sample in samples {
        let (b_dim, c_dim, h, w) = sample.dims();
        if (c_dim, h, w) != (spec.in_c, spec.h, spec.w) {
            return Err(ConvError::Calibration(format!(
                "sample dims ({c_dim},{h},{w}) don't match spec ({},{},{})",
                spec.in_c, spec.h, spec.w
            )));
        }
        for tile in 0..b_dim * geom.per_image {
            let (b, ty, tx) = tile_coords(&geom, tile);
            let (y0, x0) = tile_origin(spec, &geom, ty, tx);
            for cb in 0..sample.c_blocks() {
                gather_patch(sample, b, cb, y0, x0, n, &mut patch);
                transform(&tt, &patch, &mut v, &mut scratch);
                record(&v, (spec.in_c - cb * LANES).min(LANES));
            }
        }
    }
    Ok(())
}

fn winograd_domain_with(
    spec: &ConvShape,
    m: usize,
    samples: &[BlockedImage],
    transform: TileTransform<'_>,
) -> Result<QParams, ConvError> {
    let mut hist = Histogram::new(CAL_BINS);
    for_each_transformed_tile(spec, m, samples, transform, |v, real| {
        if real == LANES {
            hist.record(v);
        } else {
            for slot in v.chunks_exact(LANES) {
                hist.record(&slot[..real]);
            }
        }
    })?;
    check_distribution("calibrate_winograd_domain", &[&hist])?;
    Ok(QParams::from_threshold(calibrate_kl(&hist).tau))
}

fn winograd_domain_per_position_with(
    spec: &ConvShape,
    m: usize,
    samples: &[BlockedImage],
    transform: TileTransform<'_>,
) -> Result<Vec<QParams>, ConvError> {
    let t_count = spec.tiles(m)?.t();
    let mut hists: Vec<Histogram> = (0..t_count).map(|_| Histogram::new(CAL_BINS)).collect();
    for_each_transformed_tile(spec, m, samples, transform, |v, real| {
        for (hist, slot) in hists.iter_mut().zip(v.chunks_exact(LANES)) {
            hist.record(&slot[..real]);
        }
    })?;
    let refs: Vec<&Histogram> = hists.iter().collect();
    check_distribution("calibrate_winograd_domain_per_position", &refs)?;
    Ok(hists
        .iter()
        .map(|h| QParams::from_threshold(calibrate_kl(h).tau))
        .collect())
}

/// Winograd-domain KL calibration (the LoWino scheme): every tile of every
/// sample is transformed with `Bᵀ·B` for `F(m, r)` and the histogram is
/// collected over the transformed values.
pub fn calibrate_winograd_domain(
    spec: &ConvShape,
    m: usize,
    samples: &[BlockedImage],
) -> Result<QParams, ConvError> {
    winograd_domain_with(spec, m, samples, &lowered_transform)
}

/// Per-tile-position Winograd-domain calibration: one threshold per
/// position `t ∈ 0..(m+r−1)²`.
///
/// The transform coefficients differ wildly across tile positions for
/// large tiles (the corner rows of `Bᵀ⟨6,3⟩` amplify ~27× more than the
/// central ones), so a single per-tensor scale wastes most of the INT8
/// range on the quiet positions. Per-position scales fix this — the
/// granularity extension evaluated in the scale-granularity ablation, and
/// what makes `F(6×6)` LoWino usable.
pub fn calibrate_winograd_domain_per_position(
    spec: &ConvShape,
    m: usize,
    samples: &[BlockedImage],
) -> Result<Vec<QParams>, ConvError> {
    winograd_domain_per_position_with(spec, m, samples, &lowered_transform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_tensor::Tensor4;
    use lowino_winograd::range_growth_2d;

    fn sample_image(spec: &ConvShape, scale: f32) -> BlockedImage {
        let t = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b + c * 3 + y * 7 + x * 11) as f32 * 0.17).sin() * scale
        });
        BlockedImage::from_nchw(&t)
    }

    #[test]
    fn spatial_calibration_covers_data() {
        let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
        let q = calibrate_spatial(&[sample_image(&spec, 2.0)]).unwrap();
        // τ within (0, max]; for this smooth data it should be near max.
        assert!(q.tau() > 0.5 && q.tau() <= 2.01, "tau={}", q.tau());
    }

    #[test]
    fn winograd_domain_tau_reflects_range_growth() {
        // The transformed values are amplified by up to growth(m); the
        // Winograd-domain τ must be substantially larger than the spatial
        // one — this is the heart of the LoWino scheme (Fig. 9).
        let spec = ConvShape::same(1, 8, 8, 12, 3).validate().unwrap();
        let samples = [sample_image(&spec, 1.0)];
        let spatial = calibrate_spatial(&samples).unwrap();
        let wd2 = calibrate_winograd_domain(&spec, 2, &samples).unwrap();
        let wd4 = calibrate_winograd_domain(&spec, 4, &samples).unwrap();
        assert!(wd2.tau() > spatial.tau(), "{} vs {}", wd2.tau(), spatial.tau());
        assert!(wd4.tau() > wd2.tau(), "{} vs {}", wd4.tau(), wd2.tau());
        // And bounded by the analytic growth.
        let g4 = range_growth_2d(4, 3).unwrap() as f32;
        assert!(wd4.tau() <= spatial.tau() * g4 * 1.1);
    }

    #[test]
    fn lowered_transform_calibrates_bit_equal_to_the_interpreted_one() {
        // C = 70 (a 6-lane tail block), ragged tiles, two seeded samples.
        let spec = ConvShape::same(2, 70, 8, 11, 3).validate().unwrap();
        let mut rng = lowino_testkit::Rng::seed_from_u64(0xCA11B);
        let samples: Vec<BlockedImage> = (0..2)
            .map(|_| {
                let mut t = Tensor4::zeros(2, 70, 11, 11);
                rng.fill_f32(t.data_mut(), -3.0, 3.0);
                BlockedImage::from_nchw(&t)
            })
            .collect();
        let interpreted: TileTransform<'_> = &|tt, d, v, s| tt.input_tile_f32(d, v, s);
        for m in [2usize, 4, 6] {
            let want = winograd_domain_with(&spec, m, &samples, interpreted).unwrap();
            let got = calibrate_winograd_domain(&spec, m, &samples).unwrap();
            assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "F({m},3) per-tensor");
        }
        // One KL search per position: F(4,3) only, to keep the test short.
        let want = winograd_domain_per_position_with(&spec, 4, &samples, interpreted).unwrap();
        let got = calibrate_winograd_domain_per_position(&spec, 4, &samples).unwrap();
        let bits = |q: &[QParams]| q.iter().map(|q| q.alpha.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "F(4,3) per-position");
    }

    #[test]
    fn empty_samples_error() {
        let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
        assert!(calibrate_spatial(&[]).is_err());
        assert!(calibrate_winograd_domain(&spec, 2, &[]).is_err());
    }

    #[test]
    fn all_zero_samples_error() {
        let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
        let zero = BlockedImage::zeros(1, 8, 10, 10);
        let err = calibrate_spatial(std::slice::from_ref(&zero)).unwrap_err();
        assert!(err.to_string().contains("identically zero"), "{err}");
        assert!(calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&zero)).is_err());
        assert!(
            calibrate_winograd_domain_per_position(&spec, 2, std::slice::from_ref(&zero)).is_err()
        );
    }

    #[test]
    fn all_non_finite_samples_error() {
        let t = Tensor4::from_fn(1, 8, 10, 10, |_, _, _, _| f32::NAN);
        let nan = BlockedImage::from_nchw(&t);
        let err = calibrate_spatial(std::slice::from_ref(&nan)).unwrap_err();
        assert!(err.to_string().contains("no finite values"), "{err}");
    }

    #[test]
    fn mismatched_sample_dims_error() {
        let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
        let wrong = BlockedImage::zeros(1, 8, 11, 11);
        let err = calibrate_winograd_domain(&spec, 2, &[wrong]).unwrap_err();
        assert!(matches!(err, ConvError::Calibration(_)));
    }
}
