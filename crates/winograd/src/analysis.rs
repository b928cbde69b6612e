//! Value-range-growth analysis of the Winograd transforms (paper §2.2).
//!
//! The input transform multiplies the data by `Bᵀ` twice (rows then
//! columns), so the worst-case amplification of the value range is the
//! square of the largest row L1 norm of `Bᵀ`:
//!
//! * `F(2,3)`: 2² = **4×**
//! * `F(4,3)`: 10² = **100×**
//! * `F(6,3)`: ~10⁴×
//!
//! exactly the 4× / 100× / 10000× figures the paper quotes. The reciprocal
//! of this growth is the `α` the down-scaling approach must multiply by
//! (§2.3) — the root cause of its accuracy collapse at large tile sizes.

use crate::matrices::{MatrixError, RatMat, WinogradMatrices};
use crate::rational::Rational;

/// Largest row L1 norm of a matrix — the 1-D worst-case amplification.
pub fn l1_growth(m: &RatMat) -> Rational {
    let (rows, cols) = m.dims();
    let mut best = Rational::ZERO;
    for i in 0..rows {
        let mut s = Rational::ZERO;
        for j in 0..cols {
            s += m[(i, j)].abs();
        }
        if s > best {
            best = s;
        }
    }
    best
}

/// 1-D input-transform range growth of `F(m, r)`.
pub fn range_growth_1d(m: usize, r: usize) -> Result<f64, MatrixError> {
    let w = WinogradMatrices::for_tile(m, r)?;
    Ok(l1_growth(&w.bt).to_f64())
}

/// 2-D input-transform range growth of `F(m×m, r×r)` — the paper's
/// 4×/100×/10⁴× amplification factor.
pub fn range_growth_2d(m: usize, r: usize) -> Result<f64, MatrixError> {
    range_growth_1d(m, r).map(|g| g * g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_growth_matches_paper_quotes() {
        // §2.2: "the values of the transformed input matrix will increase up
        // to 4× and 100× ... for F(2×2,3×3) and F(4×4,3×3)".
        assert_eq!(range_growth_2d(2, 3).unwrap(), 4.0);
        assert_eq!(range_growth_2d(4, 3).unwrap(), 100.0);
        // §2.3: α = 1/10000 regime for m = 6 (order of magnitude: our
        // generated F(6,3) matrices use reciprocal points, giving growth in
        // the thousands).
        let g6 = range_growth_2d(6, 3).unwrap();
        assert!(g6 > 1_000.0, "g6={g6}");
    }

    #[test]
    fn growth_is_monotonic_in_tile_size() {
        let mut prev = 0.0;
        for m in [2usize, 4, 6] {
            let g = range_growth_2d(m, 3).unwrap();
            assert!(g > prev, "m={m}: {g} <= {prev}");
            prev = g;
        }
    }

    #[test]
    fn growth_bound_is_tight_empirically() {
        // A worst-case INT8 tile must reach (not exceed) the analytic bound
        // for F(2,3), whose Bᵀ has ±1 entries: signs can be chosen to align.
        use crate::transform::TileTransformer;
        let g = range_growth_2d(2, 3).unwrap() as i32;
        // d chosen so row [1,0,-1,0] and its column pass align: d[0,j]=127,
        // d[2,j]=-127 pattern.
        let n = 4;
        let mut d = vec![0i32; n * n];
        for j in 0..n {
            d[j] = 127; // row 0
            d[2 * n + j] = -127; // row 2
        }
        for i in 0..n {
            d[i * n] = 127;
            d[i * n + 2] = -127;
        }
        d[0] = 127;
        d[2] = -127;
        d[2 * n] = -127;
        d[2 * n + 2] = 127;
        let t = TileTransformer::new(2, 3).unwrap();
        let mut v = vec![0i32; n * n];
        t.input_tile_i32(&d, &mut v, &mut t.make_scratch(1));
        let max = v.iter().map(|x| x.abs()).max().unwrap();
        assert_eq!(max, g * 127, "bound should be attained");
    }
}
