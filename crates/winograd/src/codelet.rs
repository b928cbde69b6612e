//! Codelet generation for Winograd transforms (paper §4.2.4, Fig. 4).
//!
//! A *codelet* computes `out = M · in` for one transformation matrix `M`,
//! where each `in[j]` / `out[i]` is a lane group (64 channels in the blocked
//! layout). The generator mirrors the paper's pipeline:
//!
//! 1. start from the transformation matrix (exact rationals, wincnn-style);
//! 2. **zero elimination** — terms with zero coefficient are never emitted;
//! 3. **common-subexpression elimination** — coefficient-pair patterns shared
//!    between rows (e.g. `-1·in[2] + 1·in[4]` in Fig. 4) are hoisted into
//!    temporaries, including sign-flipped occurrences;
//! 4. the resulting program is executed lane-wise; the inner loops are
//!    shape-constant and unrolled/vectorised by the compiler (the Rust
//!    equivalent of the paper's generated-and-compiled C++ codelets).

use crate::matrices::RatMat;
use crate::rational::Rational;

/// A value source inside a codelet program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Input slot `j` (row of the operand tile).
    In(usize),
    /// Temporary produced by the CSE pass.
    Temp(usize),
}

/// A linear combination `Σ coeff·source` (the right-hand side of one
/// generated statement).
pub type Expr = Vec<(Source, Rational)>;

/// A compiled transform codelet: temporaries first, then outputs.
#[derive(Debug, Clone)]
pub struct Codelet {
    n_in: usize,
    n_out: usize,
    temps: Vec<Expr>,
    outs: Vec<Expr>,
    /// f32 renderings, parallel to `temps`/`outs`, used by the executor.
    temps_f32: Vec<Vec<(Source, f32)>>,
    outs_f32: Vec<Vec<(Source, f32)>>,
}

impl Codelet {
    /// Generate a codelet for `out = M·in` with zero-elimination and CSE.
    pub fn generate(m: &RatMat) -> Self {
        let (rows, cols) = m.dims();
        // Zero elimination: dense rows -> sparse term lists.
        let mut outs: Vec<Expr> = (0..rows)
            .map(|i| {
                (0..cols)
                    .filter(|&j| !m[(i, j)].is_zero())
                    .map(|j| (Source::In(j), m[(i, j)]))
                    .collect()
            })
            .collect();

        // Greedy pairwise CSE: hoist any (term, term) pattern — up to a
        // global sign — that appears in at least two rows.
        let mut temps: Vec<Expr> = Vec::new();
        while let Some((pat, hits)) = best_shared_pair(&outs) {
            if hits < 2 {
                break;
            }
            let t = temps.len();
            temps.push(vec![pat.0, pat.1]);
            for row in outs.iter_mut() {
                replace_pair(row, &pat, t);
            }
            // Guard against pathological blow-up.
            if temps.len() > rows * cols {
                break;
            }
        }

        let render = |e: &Expr| -> Vec<(Source, f32)> {
            e.iter().map(|&(s, c)| (s, c.to_f32())).collect()
        };
        let temps_f32 = temps.iter().map(render).collect();
        let outs_f32 = outs.iter().map(render).collect();
        Codelet {
            n_in: cols,
            n_out: rows,
            temps,
            outs,
            temps_f32,
            outs_f32,
        }
    }

    /// Number of input slots.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output slots.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of temporaries introduced by CSE.
    pub fn n_temps(&self) -> usize {
        self.temps.len()
    }

    /// f32-rendered temporary expressions, in evaluation order (tape
    /// lowering input).
    pub(crate) fn temps_f32(&self) -> &[Vec<(Source, f32)>] {
        &self.temps_f32
    }

    /// f32-rendered output expressions (tape lowering input).
    pub(crate) fn outs_f32(&self) -> &[Vec<(Source, f32)>] {
        &self.outs_f32
    }

    /// Multiply+add operation count per lane — the metric the CSE pass
    /// minimises (used by tests and the ablation bench).
    pub fn op_count(&self) -> usize {
        self.temps.iter().chain(self.outs.iter()).map(Vec::len).sum()
    }

    /// True if every coefficient is an integer (required by the integer
    /// executor used in the down-scaling baseline).
    pub fn is_integral(&self) -> bool {
        self.temps
            .iter()
            .chain(self.outs.iter())
            .flatten()
            .all(|(_, c)| c.is_integer())
    }

    /// Worst-case magnitudes on inputs bounded by `input`, by interval
    /// arithmetic over the program as it executes (so CSE temporaries and
    /// every partial sum are covered): `(largest value formed anywhere,
    /// largest output)`.
    pub fn magnitude_bound(&self, input: f64) -> (f64, f64) {
        let mut temps: Vec<f64> = Vec::with_capacity(self.temps.len());
        let bound = |expr: &Expr, temps: &[f64]| -> f64 {
            expr.iter()
                .map(|&(src, c)| {
                    c.abs().to_f64()
                        * match src {
                            Source::In(_) => input,
                            Source::Temp(t) => temps[t],
                        }
                })
                .sum()
        };
        for expr in &self.temps {
            let b = bound(expr, &temps);
            temps.push(b);
        }
        let out = self.outs.iter().map(|e| bound(e, &temps)).fold(0.0, f64::max);
        (temps.iter().copied().fold(out, f64::max), out)
    }

    /// Execute over `f32` lanes with strided slot addressing.
    ///
    /// Slot `j` of the input starts at `input[in_base + j·in_stride]`; slot
    /// `i` of the output at `output[out_base + i·out_stride]`; each slot is
    /// `lanes` consecutive values. `scratch` must hold
    /// `n_temps()·lanes` values.
    #[inline]
    pub fn execute_f32(
        &self,
        lanes: usize,
        input: &[f32],
        in_base: usize,
        in_stride: usize,
        output: &mut [f32],
        out_base: usize,
        out_stride: usize,
        scratch: &mut [f32],
    ) {
        debug_assert!(scratch.len() >= self.temps_f32.len() * lanes);
        // Temporaries; temp t may reference In slots and temps < t.
        for (t, expr) in self.temps_f32.iter().enumerate() {
            let (done, rest) = scratch.split_at_mut(t * lanes);
            let dst = &mut rest[..lanes];
            accumulate_f32(expr, lanes, input, in_base, in_stride, done, dst);
        }
        // Outputs (reference In slots and temps). `output` must not alias
        // `input` — the transforms always write to a distinct buffer.
        for (i, expr) in self.outs_f32.iter().enumerate() {
            let base = out_base + i * out_stride;
            let dst = &mut output[base..base + lanes];
            accumulate_f32(expr, lanes, input, in_base, in_stride, scratch, dst);
        }
    }

    /// Execute over `i32` lanes (integer transforms for the down-scaling /
    /// up-casting baselines). Accumulation is in `i32`; exact for all
    /// supported `F(m, r)` on INT8-range inputs (worst-case magnitude
    /// `growth² · 127 < 2³¹`).
    ///
    /// # Panics
    ///
    /// Panics if the codelet is not integral (see [`Codelet::is_integral`]).
    #[inline]
    pub fn execute_i32(
        &self,
        lanes: usize,
        input: &[i32],
        in_base: usize,
        in_stride: usize,
        output: &mut [i32],
        out_base: usize,
        out_stride: usize,
        scratch: &mut [i32],
    ) {
        assert!(self.is_integral(), "integer execution of fractional codelet");
        debug_assert!(scratch.len() >= self.temps.len() * lanes);
        for (t, expr) in self.temps.iter().enumerate() {
            let (done, rest) = scratch.split_at_mut(t * lanes);
            let dst = &mut rest[..lanes];
            accumulate_i32(expr, lanes, input, in_base, in_stride, done, dst);
        }
        for (i, expr) in self.outs.iter().enumerate() {
            let base = out_base + i * out_stride;
            let dst = &mut output[base..base + lanes];
            accumulate_i32(expr, lanes, input, in_base, in_stride, scratch, dst);
        }
    }
}

// -- executor helpers ---------------------------------------------------

#[inline]
fn accumulate_f32(
    expr: &[(Source, f32)],
    lanes: usize,
    input: &[f32],
    in_base: usize,
    in_stride: usize,
    scratch: &[f32],
    dst: &mut [f32],
) {
    dst[..lanes].fill(0.0);
    for &(src, coeff) in expr {
        let s = match src {
            Source::In(j) => &input[in_base + j * in_stride..][..lanes],
            Source::Temp(t) => &scratch[t * lanes..][..lanes],
        };
        for l in 0..lanes {
            dst[l] += coeff * s[l];
        }
    }
}

#[inline]
fn accumulate_i32(
    expr: &[(Source, Rational)],
    lanes: usize,
    input: &[i32],
    in_base: usize,
    in_stride: usize,
    scratch: &[i32],
    dst: &mut [i32],
) {
    dst[..lanes].fill(0);
    for &(src, coeff) in expr {
        let c = coeff.numer() as i32;
        let s = match src {
            Source::In(j) => &input[in_base + j * in_stride..][..lanes],
            Source::Temp(t) => &scratch[t * lanes..][..lanes],
        };
        for l in 0..lanes {
            dst[l] += c * s[l];
        }
    }
}

// -- CSE pass helpers ----------------------------------------------------

type Pair = ((Source, Rational), (Source, Rational));

/// Find the (canonicalised) pair of terms shared by the most rows, counting
/// sign-flipped occurrences.
fn best_shared_pair(rows: &[Expr]) -> Option<(Pair, usize)> {
    let mut best: Option<(Pair, usize)> = None;
    let mut candidates: Vec<Pair> = Vec::new();
    for row in rows {
        for a in 0..row.len() {
            for b in (a + 1)..row.len() {
                candidates.push(canonical_pair(row[a], row[b]));
            }
        }
    }
    candidates.sort_by_key(pair_key);
    candidates.dedup();
    for pat in candidates {
        let hits = rows.iter().filter(|r| find_pair(r, &pat).is_some()).count();
        if best.as_ref().is_none_or(|(_, h)| hits > *h) {
            best = Some((pat, hits));
        }
    }
    best
}

/// Canonical form: first term has the lower source index and positive
/// coefficient sign (the global sign is recoverable at substitution time).
fn canonical_pair(a: (Source, Rational), b: (Source, Rational)) -> Pair {
    let (x, y) = if source_key(a.0) <= source_key(b.0) {
        (a, b)
    } else {
        (b, a)
    };
    if x.1 < Rational::ZERO {
        ((x.0, -x.1), (y.0, -y.1))
    } else {
        (x, y)
    }
}

fn source_key(s: Source) -> (u8, usize) {
    match s {
        Source::In(j) => (0, j),
        Source::Temp(t) => (1, t),
    }
}

fn pair_key(p: &Pair) -> (u8, usize, i128, i128, u8, usize, i128, i128) {
    (
        source_key(p.0 .0).0,
        source_key(p.0 .0).1,
        p.0 .1.numer(),
        p.0 .1.denom(),
        source_key(p.1 .0).0,
        source_key(p.1 .0).1,
        p.1 .1.numer(),
        p.1 .1.denom(),
    )
}

/// If `row` contains the pattern (possibly sign-flipped), return the sign.
fn find_pair(row: &Expr, pat: &Pair) -> Option<Rational> {
    for sign in [Rational::ONE, -Rational::ONE] {
        let want0 = (pat.0 .0, pat.0 .1 * sign);
        let want1 = (pat.1 .0, pat.1 .1 * sign);
        if row.contains(&want0) && row.contains(&want1) {
            return Some(sign);
        }
    }
    None
}

/// Replace an occurrence of `pat` in `row` by `sign·Temp(t)`.
fn replace_pair(row: &mut Expr, pat: &Pair, t: usize) {
    if let Some(sign) = find_pair(row, pat) {
        row.retain(|&term| term != (pat.0 .0, pat.0 .1 * sign) && term != (pat.1 .0, pat.1 .1 * sign));
        row.push((Source::Temp(t), sign));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::WinogradMatrices;

    fn run_dense(m: &RatMat, input: &[f32]) -> Vec<f32> {
        let (rows, cols) = m.dims();
        (0..rows)
            .map(|i| (0..cols).map(|j| m[(i, j)].to_f32() * input[j]).sum())
            .collect()
    }

    fn check_matches_dense(m: &RatMat) {
        let code = Codelet::generate(m);
        let (rows, cols) = m.dims();
        let input: Vec<f32> = (0..cols).map(|j| (j as f32 + 1.0) * 0.37 - 1.0).collect();
        let mut out = vec![0.0f32; rows];
        let mut scratch = vec![0.0f32; code.n_temps().max(1)];
        code.execute_f32(1, &input, 0, 1, &mut out, 0, 1, &mut scratch);
        let want = run_dense(m, &input);
        for (a, b) in out.iter().zip(&want) {
            assert!((a - b).abs() < 1e-4, "{out:?} vs {want:?}");
        }
    }

    #[test]
    fn codelets_match_dense_for_all_transform_matrices() {
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (3, 5)] {
            let w = WinogradMatrices::for_tile(m, r).unwrap();
            check_matches_dense(&w.bt);
            check_matches_dense(&w.g);
            check_matches_dense(&w.at);
        }
    }

    #[test]
    fn zero_elimination_reduces_ops() {
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.bt);
        let dense_ops = 6 * 6;
        // Bᵀ⟨4,3⟩ has 22 nonzeros; ops must not exceed that (CSE keeps the
        // total term count at worst equal while hoisting shared work).
        assert!(code.op_count() <= 22, "ops={}", code.op_count());
        assert!(code.op_count() < dense_ops);
    }

    #[test]
    fn cse_finds_shared_pairs_in_f4_3_bt() {
        // Rows 3 and 4 of Bᵀ⟨4,3⟩ are [0,∓2,-1,±2,1,0] — they share the
        // (-1·in[2], +1·in[4]) pattern of paper Fig. 4 (up to sign pairing),
        // which must be hoisted into a temporary so the shared sum is
        // computed once instead of per row.
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.bt);
        assert!(code.n_temps() >= 1, "expected CSE to fire");
        assert!(code.op_count() <= 22, "ops={}", code.op_count());
    }

    #[test]
    fn lane_execution_matches_scalar_execution() {
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.bt);
        let lanes = 8;
        let input: Vec<f32> = (0..6 * lanes).map(|i| (i as f32 * 0.13).sin()).collect();
        let mut out = vec![0.0f32; 6 * lanes];
        let mut scratch = vec![0.0f32; code.n_temps().max(1) * lanes];
        code.execute_f32(lanes, &input, 0, lanes, &mut out, 0, lanes, &mut scratch);
        // Scalar per-lane check.
        for l in 0..lanes {
            let scalar_in: Vec<f32> = (0..6).map(|j| input[j * lanes + l]).collect();
            let want = run_dense(&w.bt, &scalar_in);
            for i in 0..6 {
                assert!((out[i * lanes + l] - want[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn strided_addressing() {
        // Column-wise access of a 4x4 tile stored row-major with lanes=2.
        let w = WinogradMatrices::lavin_f2_3();
        let code = Codelet::generate(&w.bt);
        let lanes = 2;
        let n = 4;
        let tile: Vec<f32> = (0..n * n * lanes).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; n * n * lanes];
        let mut scratch = vec![0.0f32; code.n_temps().max(1) * lanes];
        let col = 1;
        code.execute_f32(
            lanes,
            &tile,
            col * lanes,
            n * lanes,
            &mut out,
            col * lanes,
            n * lanes,
            &mut scratch,
        );
        for i in 0..n {
            let scalar_in: Vec<f32> = (0..n).map(|k| tile[(k * n + col) * lanes]).collect();
            let want = run_dense(&w.bt, &scalar_in);
            assert!((out[(i * n + col) * lanes] - want[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn integer_execution_exact() {
        let w = WinogradMatrices::lavin_f4_3();
        let code = Codelet::generate(&w.bt);
        assert!(code.is_integral());
        let input: Vec<i32> = vec![3, -7, 11, 127, -128, 55];
        let mut out = vec![0i32; 6];
        let mut scratch = vec![0i32; code.n_temps().max(1)];
        code.execute_i32(1, &input, 0, 1, &mut out, 0, 1, &mut scratch);
        for i in 0..6 {
            let want: i64 = (0..6)
                .map(|j| w.bt[(i, j)].numer() as i64 * i64::from(input[j]))
                .sum();
            assert_eq!(i64::from(out[i]), want);
        }
    }

    #[test]
    #[should_panic(expected = "fractional codelet")]
    fn integer_execution_rejects_fractional() {
        let w = WinogradMatrices::lavin_f2_3();
        let code = Codelet::generate(&w.g); // G has 1/2 entries
        let mut out = vec![0i32; 4];
        let mut scratch = vec![0i32; code.n_temps().max(1)];
        code.execute_i32(1, &[1, 2, 3], 0, 1, &mut out, 0, 1, &mut scratch);
    }
}
