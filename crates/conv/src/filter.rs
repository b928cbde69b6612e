//! Offline filter transformation and packing (paper §4.2.2).
//!
//! Filters are known ahead of inference, so everything here runs offline
//! and is excluded from the reported stage timings. For the Winograd
//! algorithms each `r×r` filter channel is transformed to `U = G g Gᵀ`
//! (n×n), converted to the scheme's `U` lane (quantized or not), and
//! reorganised into the element's word interleave — for u8×i8 the VNNI one,
//! together with the compensation rows of Eq. 9.

use lowino_gemm::{Operands, UPanel, UPanelOf};
use lowino_quant::QParams;
use lowino_simd::vecf32::VecTier;
use lowino_simd::{saturate_to_i8, SimdTier};
use lowino_tensor::{ConvShape, Tensor4, TileGeometry, LANES};
use lowino_winograd::TileTransformer;

use crate::error::{check_weights, ConvError};

/// Transform every `(k, c)` filter channel to the Winograd domain.
/// Returns a `[k][c][t]`-indexed flat vector (`t = n²` values per channel).
///
/// Up to [`LANES`] consecutive input channels of one output channel go
/// through the `G` tape per call, one channel per lane. The transform is
/// lane-wise, so every value equals the one-channel-at-a-time result bit
/// for bit.
pub fn transform_filters_f32(
    spec: &ConvShape,
    tt: &TileTransformer,
    weights: &Tensor4,
) -> Result<Vec<f32>, ConvError> {
    check_weights(spec, weights)?;
    let (kk, cc, r, _) = weights.dims();
    let t_count = tt.n() * tt.n();
    let vt = VecTier::for_simd(SimdTier::detect());
    let mut out = vec![0f32; kk * cc * t_count];
    let mut scratch = tt.make_scratch(LANES);
    let mut g = vec![0f32; r * r * LANES];
    let mut u = vec![0f32; t_count * LANES];
    for k in 0..kk {
        for c0 in (0..cc).step_by(LANES) {
            let lanes = (cc - c0).min(LANES);
            tt.ensure_scratch(&mut scratch, lanes);
            for tap in 0..r * r {
                for l in 0..lanes {
                    g[tap * lanes + l] = weights.at(k, c0 + l, tap / r, tap % r);
                }
            }
            tt.filter_tile_f32_compiled(vt, &g, &mut u, &mut scratch);
            for l in 0..lanes {
                let dst = &mut out[(k * cc + c0 + l) * t_count..][..t_count];
                for (t, d) in dst.iter_mut().enumerate() {
                    *d = u[t * lanes + l];
                }
            }
        }
    }
    Ok(out)
}

/// The Winograd filter packer of every scheme: transform the filters in f32
/// ([`transform_filters_f32`]), take their Winograd-domain max-abs scales
/// `α_U[t]` — each position's own, or (`per_position = false`) the one for
/// the whole tensor: `QParams::from_max_abs` of every value is
/// `from_threshold` of the largest per-position max — and store
/// `to(α_U[t], u)` of every transformed value `u = U[t][c][k]` in `E`'s
/// panel. The filters are fully known, so max-abs is exact — no calibration
/// needed. Returns the panel (a u8×i8 one still wants
/// [`UPanel::finalize_compensation`]) and `α_U[t]` for every `t`.
pub fn pack_filters<E: Operands>(
    spec: &ConvShape,
    geom: &TileGeometry,
    tt: &TileTransformer,
    weights: &Tensor4,
    per_position: bool,
    to: impl Fn(QParams, f32) -> E::U,
) -> Result<(UPanelOf<E>, Vec<QParams>), ConvError> {
    let transformed = transform_filters_f32(spec, tt, weights)?;
    let t_count = geom.t();
    let mut max = vec![0f32; t_count];
    for channel in transformed.chunks_exact(t_count) {
        for (m, u) in max.iter_mut().zip(channel) {
            *m = m.max(u.abs());
        }
    }
    if !per_position {
        let all = max.iter().fold(0f32, |m, &x| m.max(x));
        max.fill(all);
    }
    let alphas: Vec<QParams> = max.into_iter().map(QParams::from_threshold).collect();
    let (kk, cc) = (spec.out_c, spec.in_c);
    let mut panel = UPanelOf::new(t_count, cc, kk);
    for k in 0..kk {
        for c in 0..cc {
            let base = (k * cc + c) * t_count;
            for (t, &alpha) in alphas.iter().enumerate() {
                panel.set(t, c, k, to(alpha, transformed[base + t]));
            }
        }
    }
    Ok((panel, alphas))
}

/// Direct-INT8 filter packing: spatial-domain max-abs quantization into an
/// `r²`-position panel — one tile position per filter offset `(dy, dx)`,
/// consumed by [`crate::DirectInt8Conv`]'s implicit-GEMM offset passes.
pub fn pack_filters_direct_i8(
    spec: &ConvShape,
    weights: &Tensor4,
) -> Result<(UPanel, QParams), ConvError> {
    check_weights(spec, weights)?;
    let alpha_u = QParams::from_max_abs(weights.data());
    let r = spec.r;
    let mut panel = UPanel::new(r * r, spec.in_c, spec.out_c);
    for k in 0..spec.out_c {
        for c in 0..spec.in_c {
            for dy in 0..r {
                for dx in 0..r {
                    panel.set(dy * r + dx, c, k, alpha_u.quantize(weights.at(k, c, dy, dx)));
                }
            }
        }
    }
    panel.finalize_compensation();
    Ok((panel, alpha_u))
}

/// Saturating helper shared with the executors (re-exported so the quant
/// crate's local copy stays pinned to the simd one).
#[inline]
pub fn quantize_pin_check(x: f32) -> i8 {
    saturate_to_i8(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_gemm::{I16, U8I8};

    /// LoWino's packing: per-tensor scale, quantized, compensated.
    fn lowino(spec: &ConvShape, geom: &TileGeometry, tt: &TileTransformer, w: &Tensor4) -> (UPanel, QParams) {
        let (mut panel, alpha_u) = pack_filters::<U8I8>(spec, geom, tt, w, false, |a, x| a.quantize(x)).unwrap();
        panel.finalize_compensation();
        (panel, alpha_u[0])
    }

    fn spec_and_weights() -> (ConvShape, Tensor4) {
        let spec = ConvShape::same(1, 4, 6, 8, 3).validate().unwrap();
        let w = Tensor4::from_fn(6, 4, 3, 3, |k, c, y, x| {
            ((k * 11 + c * 7 + y * 3 + x) as f32 * 0.31).sin() * 0.5
        });
        (spec, w)
    }

    #[test]
    fn transform_matches_scalar_reference() {
        let (spec, w) = spec_and_weights();
        let tt = TileTransformer::new(2, 3).unwrap();
        let tf = transform_filters_f32(&spec, &tt, &w).unwrap();
        // Spot-check one channel against the one-shot helper.
        let mut g = vec![0f32; 9];
        for dy in 0..3 {
            for dx in 0..3 {
                g[dy * 3 + dx] = w.at(3, 2, dy, dx);
            }
        }
        let want = lowino_winograd::filter_transform_f32(2, 3, &g).unwrap();
        let base = (3 * 4 + 2) * 16;
        for t in 0..16 {
            assert!((tf[base + t] - want[t]).abs() < 1e-5);
        }
    }

    #[test]
    fn lane_grouped_transform_is_bit_identical_to_one_channel_at_a_time() {
        // C = 70: one full 64-lane group plus a 6-lane tail per filter.
        let spec = ConvShape::same(1, 70, 5, 8, 3).validate().unwrap();
        let w = Tensor4::from_fn(5, 70, 3, 3, |k, c, y, x| {
            ((k * 13 + c * 5 + y * 3 + x) as f32 * 0.37).sin() * 0.4
        });
        for m in [2usize, 4, 6] {
            let tt = TileTransformer::new(m, 3).unwrap();
            let geom = spec.tiles(m).unwrap();
            let t_count = geom.t();
            // Reference: the interpreted codelet on one (k, c) pair at a time.
            let mut want = Vec::new();
            let mut s1 = tt.make_scratch(1);
            let mut u = vec![0f32; t_count];
            for k in 0..5 {
                for c in 0..70 {
                    let g: Vec<f32> = (0..9).map(|tap| w.at(k, c, tap / 3, tap % 3)).collect();
                    tt.filter_tile_f32(&g, &mut u, &mut s1);
                    want.extend_from_slice(&u);
                }
            }
            let got = transform_filters_f32(&spec, &tt, &w).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "F({m},3) transformed filters");
            // α_U and the packed panel are functions of those values alone.
            let (panel, alpha_u) = lowino(&spec, &geom, &tt, &w);
            assert_eq!(alpha_u.alpha.to_bits(), QParams::from_max_abs(&want).alpha.to_bits());
            for k in 0..5 {
                for c in 0..70 {
                    for t in 0..t_count {
                        let q = alpha_u.quantize(want[(k * 70 + c) * t_count + t]);
                        assert_eq!(panel.get(t, c, k), q, "F({m},3) U[{t}][{c}][{k}]");
                    }
                }
            }
        }
    }

    #[test]
    fn lowino_packing_quantizes_in_winograd_domain() {
        let (spec, w) = spec_and_weights();
        let tt = TileTransformer::new(4, 3).unwrap();
        let geom = spec.tiles(4).unwrap();
        let (panel, alpha_u) = lowino(&spec, &geom, &tt, &w);
        let tf = transform_filters_f32(&spec, &tt, &w).unwrap();
        // The max transformed magnitude maps to ±127.
        let max = tf.iter().fold(0f32, |m, &v| m.max(v.abs()));
        assert!((alpha_u.tau() - max).abs() < 1e-5);
        // Every packed value equals quantize(transformed).
        for k in 0..6 {
            for c in 0..4 {
                for t in 0..36 {
                    assert_eq!(
                        panel.get(t, c, k),
                        alpha_u.quantize(tf[(k * 4 + c) * 36 + t]),
                    );
                }
            }
        }
        // Compensation rows are populated.
        assert!(panel.zbar(0).iter().any(|&z| z != 0));
    }

    #[test]
    fn upcast_packing_widens_but_preserves_values() {
        let (spec, w) = spec_and_weights();
        let tt = TileTransformer::new(2, 3).unwrap();
        let geom = spec.tiles(2).unwrap();
        let (panel, alpha_u) =
            pack_filters::<I16>(&spec, &geom, &tt, &w, false, |a, x| i16::from(a.quantize(x))).unwrap();
        let (p8, a8) = lowino(&spec, &geom, &tt, &w);
        assert_eq!(alpha_u[0].alpha, a8.alpha);
        for k in 0..6 {
            for c in 0..4 {
                for t in 0..16 {
                    assert_eq!(panel.get(t, c, k), i16::from(p8.get(t, c, k)));
                }
            }
        }
    }

    #[test]
    fn direct_i8_packing_uses_offset_positions() {
        let (spec, w) = spec_and_weights();
        let (panel, alpha_u) = pack_filters_direct_i8(&spec, &w).unwrap();
        let (t, c, _, k, _) = panel.dims();
        assert_eq!(t, 9);
        assert_eq!(c, 4);
        assert_eq!(k, 6);
        // Element (dy=1, dx=2, c=3, k=5) lives at position t = 5.
        assert_eq!(panel.get(5, 3, 5), alpha_u.quantize(w.at(5, 3, 1, 2)));
        // Padded channels are zero.
        assert_eq!(panel.get(5, 10, 5), 0);
    }

    #[test]
    fn wrong_weight_shape_rejected() {
        let (spec, _) = spec_and_weights();
        let bad = Tensor4::zeros(6, 4, 5, 5);
        let tt = TileTransformer::new(2, 3).unwrap();
        assert!(transform_filters_f32(&spec, &tt, &bad).is_err());
    }
}
