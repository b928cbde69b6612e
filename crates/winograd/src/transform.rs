//! Tile transforms: `V = Bᵀ d B`, `U = G g Gᵀ`, `y = Aᵀ Z A` (paper Fig. 3).
//!
//! Every 2-D transform is two passes of the corresponding 1-D codelet —
//! column-wise then row-wise, exactly the paper's §4.2.4: *"by performing in
//! a column-wise manner and then in a row-wise manner on input tiles, the
//! generated codelets are reused to calculate all the transformed inputs"*.
//!
//! All transforms operate lane-wise: each tile element is a group of `lanes`
//! values (64 channels in the blocked layout; 1 in scalar reference code).

use crate::codelet::Codelet;
use crate::matrices::{MatrixError, WinogradMatrices};
use crate::tape::{Tape, TapePostOps};
use lowino_simd::vecf32::VecTier;

/// Scratch space for tile transforms (reused across tiles; no allocation in
/// the hot loop).
#[derive(Debug)]
pub struct TransformScratch {
    lanes: usize,
    tmp: Vec<f32>,
    cse: Vec<f32>,
    tmp_i32: Vec<i32>,
    cse_i32: Vec<i32>,
    /// One row of quantized `V` lines (`n · lanes` bytes): the staging
    /// buffer between the quantize epilogue and the line sink.
    row_u8: Vec<u8>,
}

impl TransformScratch {
    /// An empty scratch holding no buffers. Size it for a transformer with
    /// [`TileTransformer::ensure_scratch`] before use; until then it is only
    /// valid for `lanes == 0` work (i.e. nothing).
    ///
    /// This is the persistent-arena entry point: a worker slot holds one
    /// `TransformScratch` for its whole life and re-`ensure`s it per layer,
    /// so the buffers grow to the high-water mark once and are then reused
    /// allocation-free.
    pub fn empty() -> Self {
        Self {
            lanes: 0,
            tmp: Vec::new(),
            cse: Vec::new(),
            tmp_i32: Vec::new(),
            cse_i32: Vec::new(),
            row_u8: Vec::new(),
        }
    }
}

impl Default for TransformScratch {
    fn default() -> Self {
        Self::empty()
    }
}

/// The transforms of one `F(m×m, r×r)` algorithm.
///
/// Each 1-D codelet exists in two forms: the interpreted [`Codelet`]
/// (reference oracle) and its lowered [`Tape`] (the production path: a
/// generated straight-line kernel for `F(2,3)`/`F(4,3)`/`F(6,3)`, the
/// generic driver otherwise — see [`crate::tape`]). The `*_compiled` /
/// fused methods are bitwise identical to their interpreted counterparts.
#[derive(Debug)]
pub struct TileTransformer {
    w: WinogradMatrices,
    bt_code: Codelet,
    g_code: Codelet,
    at_code: Codelet,
    bt_tape: Tape,
    g_tape: Tape,
    at_tape: Tape,
}

impl TileTransformer {
    /// Build the codelets for `F(m, r)` and lower them to tapes.
    pub fn new(m: usize, r: usize) -> Result<Self, MatrixError> {
        let w = WinogradMatrices::for_tile(m, r)?;
        let bt_code = Codelet::generate(&w.bt);
        let g_code = Codelet::generate(&w.g);
        let at_code = Codelet::generate(&w.at);
        Ok(Self {
            bt_tape: Tape::lower(&bt_code),
            g_tape: Tape::lower(&g_code),
            at_tape: Tape::lower(&at_code),
            bt_code,
            g_code,
            at_code,
            w,
        })
    }

    /// The lowered `Bᵀ` tape (used by the transforms micro-bench).
    pub fn bt_tape(&self) -> &Tape {
        &self.bt_tape
    }

    /// The lowered `G` tape.
    pub fn g_tape(&self) -> &Tape {
        &self.g_tape
    }

    /// The lowered `Aᵀ` tape.
    pub fn at_tape(&self) -> &Tape {
        &self.at_tape
    }

    /// The underlying matrices.
    pub fn matrices(&self) -> &WinogradMatrices {
        &self.w
    }

    /// Output tile size `m`.
    pub fn m(&self) -> usize {
        self.w.m()
    }

    /// Filter size `r`.
    pub fn r(&self) -> usize {
        self.w.r()
    }

    /// Input tile size `n`.
    pub fn n(&self) -> usize {
        self.w.n()
    }

    /// Allocate scratch sized for `lanes`-wide execution.
    pub fn make_scratch(&self, lanes: usize) -> TransformScratch {
        let mut s = TransformScratch::empty();
        self.ensure_scratch(&mut s, lanes);
        s
    }

    /// Grow (never shrink) `s` so it can serve this transformer at `lanes`
    /// width. Idempotent and allocation-free once the buffers have reached
    /// the high-water mark across all layers sharing the scratch.
    pub fn ensure_scratch(&self, s: &mut TransformScratch, lanes: usize) {
        let n = self.n();
        let max_temps = self
            .bt_code
            .n_temps()
            .max(self.g_code.n_temps())
            .max(self.at_code.n_temps())
            .max(1);
        s.lanes = lanes;
        let tmp_len = n * n * lanes;
        let cse_len = max_temps * lanes;
        if s.tmp.len() < tmp_len {
            s.tmp.resize(tmp_len, 0.0);
        }
        if s.cse.len() < cse_len {
            s.cse.resize(cse_len, 0.0);
        }
        if s.tmp_i32.len() < tmp_len {
            s.tmp_i32.resize(tmp_len, 0);
        }
        if s.cse_i32.len() < cse_len {
            s.cse_i32.resize(cse_len, 0);
        }
        if s.row_u8.len() < n * lanes {
            s.row_u8.resize(n * lanes, 0);
        }
    }

    /// Input transform `V = Bᵀ d B`.
    ///
    /// `d` and `v` are `n×n` tiles of lane groups, row-major
    /// (`element (i,j) = buf[(i·n + j)·lanes ..][..lanes]`).
    pub fn input_tile_f32(&self, d: &[f32], v: &mut [f32], s: &mut TransformScratch) {
        let n = self.n();
        let lanes = s.lanes;
        debug_assert!(d.len() >= n * n * lanes && v.len() >= n * n * lanes);
        // Column pass: tmp[:, j] = Bᵀ · d[:, j].
        for j in 0..n {
            self.bt_code.execute_f32(
                lanes,
                d,
                j * lanes,
                n * lanes,
                &mut s.tmp,
                j * lanes,
                n * lanes,
                &mut s.cse,
            );
        }
        // Row pass: v[i, :] = Bᵀ · tmp[i, :]  (i.e. tmp · B).
        for i in 0..n {
            self.bt_code.execute_f32(
                lanes,
                &s.tmp,
                i * n * lanes,
                lanes,
                v,
                i * n * lanes,
                lanes,
                &mut s.cse,
            );
        }
    }

    /// Integer input transform (down-scaling baseline): `Bᵀ` is integral by
    /// construction, so the transform of an INT8 spatial-domain tile is
    /// exact in `i32`.
    pub fn input_tile_i32(&self, d: &[i32], v: &mut [i32], s: &mut TransformScratch) {
        let n = self.n();
        let lanes = s.lanes;
        debug_assert!(d.len() >= n * n * lanes && v.len() >= n * n * lanes);
        for j in 0..n {
            self.bt_code.execute_i32(
                lanes,
                d,
                j * lanes,
                n * lanes,
                &mut s.tmp_i32,
                j * lanes,
                n * lanes,
                &mut s.cse_i32,
            );
        }
        for i in 0..n {
            self.bt_code.execute_i32(
                lanes,
                &s.tmp_i32,
                i * n * lanes,
                lanes,
                v,
                i * n * lanes,
                lanes,
                &mut s.cse_i32,
            );
        }
    }

    /// Whether the f32 input transform is **exact** on integer tiles with
    /// `|d| ≤ max_abs` — then [`Self::input_tile_f32_compiled`] on the
    /// widened values equals [`Self::input_tile_i32`] value for value, at a
    /// fraction of the interpreted cost. Holds when every coefficient of
    /// `Bᵀ` is an integer and no value either pass can form reaches `2²⁴`
    /// (all f32 operations on integers below that are exact; cf. Meng &
    /// Brothers, arXiv 1901.01965): `F(2,3)` and `F(4,3)` on INT8 data.
    pub fn input_exact_in_f32(&self, max_abs: u32) -> bool {
        if !self.bt_code.is_integral() {
            return false;
        }
        let (peak_col, out_col) = self.bt_code.magnitude_bound(f64::from(max_abs));
        let (peak_row, _) = self.bt_code.magnitude_bound(out_col);
        peak_col.max(peak_row) < f64::from(1u32 << 24)
    }

    /// Filter transform `U = G g Gᵀ`; `g` is `r×r`, `u` is `n×n`.
    pub fn filter_tile_f32(&self, g: &[f32], u: &mut [f32], s: &mut TransformScratch) {
        let (n, r) = (self.n(), self.r());
        let lanes = s.lanes;
        debug_assert!(g.len() >= r * r * lanes && u.len() >= n * n * lanes);
        // Column pass: tmp (n×r) column j = G · g[:, j].
        for j in 0..r {
            self.g_code.execute_f32(
                lanes,
                g,
                j * lanes,
                r * lanes,
                &mut s.tmp,
                j * lanes,
                r * lanes,
                &mut s.cse,
            );
        }
        // Row pass: u[i, :] = G · tmp[i, :]  (i.e. tmp · Gᵀ).
        for i in 0..n {
            self.g_code.execute_f32(
                lanes,
                &s.tmp,
                i * r * lanes,
                lanes,
                u,
                i * n * lanes,
                lanes,
                &mut s.cse,
            );
        }
    }

    /// Output transform `y = Aᵀ Z A`; `z` is `n×n`, `y` is `m×m`.
    pub fn output_tile_f32(&self, z: &[f32], y: &mut [f32], s: &mut TransformScratch) {
        let (n, m) = (self.n(), self.m());
        let lanes = s.lanes;
        debug_assert!(z.len() >= n * n * lanes && y.len() >= m * m * lanes);
        // Column pass: tmp (m×n) column j = Aᵀ · z[:, j].
        for j in 0..n {
            self.at_code.execute_f32(
                lanes,
                z,
                j * lanes,
                n * lanes,
                &mut s.tmp,
                j * lanes,
                n * lanes,
                &mut s.cse,
            );
        }
        // Row pass: y[i, :] = Aᵀ · tmp[i, :]  (i.e. tmp · A).
        for i in 0..m {
            self.at_code.execute_f32(
                lanes,
                &s.tmp,
                i * n * lanes,
                lanes,
                y,
                i * m * lanes,
                lanes,
                &mut s.cse,
            );
        }
    }

    // -- compiled (tape) transforms -------------------------------------

    /// Compiled [`Self::input_tile_f32`]: same layout, executed on the
    /// lowered tape at vector tier `vt`. Bitwise identical to the
    /// interpreted version.
    pub fn input_tile_f32_compiled(
        &self,
        vt: VecTier,
        d: &[f32],
        v: &mut [f32],
        s: &mut TransformScratch,
    ) {
        self.input_tile_f32_strided(vt, d, 0, self.n() * s.lanes, v, s);
    }

    /// [`Self::input_tile_f32_compiled`] reading the tile **in place**: tile
    /// element `(i, j)` is the `lanes` values at
    /// `d[d_base + i·d_row_stride + j·lanes ..]` — a gathered patch
    /// (`d_row_stride = n·lanes`) or a window of the blocked image itself
    /// (`d_row_stride` = its row pitch). Same values, so same `v`.
    pub fn input_tile_f32_strided(
        &self,
        vt: VecTier,
        d: &[f32],
        d_base: usize,
        d_row_stride: usize,
        v: &mut [f32],
        s: &mut TransformScratch,
    ) {
        let n = self.n();
        let lanes = s.lanes;
        // Column pass: the `n` columns of a row are contiguous, so all of
        // them are one call over `n·lanes` lanes.
        self.bt_tape
            .execute_f32(vt, n * lanes, d, d_base, d_row_stride, &mut s.tmp, 0, n * lanes);
        for i in 0..n {
            self.bt_tape
                .execute_f32(vt, lanes, &s.tmp, i * n * lanes, lanes, v, i * n * lanes, lanes);
        }
    }

    /// Compiled [`Self::filter_tile_f32`].
    pub fn filter_tile_f32_compiled(
        &self,
        vt: VecTier,
        g: &[f32],
        u: &mut [f32],
        s: &mut TransformScratch,
    ) {
        let (n, r) = (self.n(), self.r());
        let lanes = s.lanes;
        self.g_tape
            .execute_f32(vt, r * lanes, g, 0, r * lanes, &mut s.tmp, 0, r * lanes);
        for i in 0..n {
            self.g_tape
                .execute_f32(vt, lanes, &s.tmp, i * r * lanes, lanes, u, i * n * lanes, lanes);
        }
    }

    // -- fused epilogue transforms (the LoWino production path) ----------

    /// Input transform with the **fused quantize epilogue**, reading the
    /// tile **in place** and handing each finished `V` line to `sink`.
    ///
    /// Tile element `(i, j)` is the `lanes` values at
    /// `d[d_base + i·d_row_stride + j·lanes ..]` — a gathered patch
    /// (`d_row_stride = n·lanes`) or a window of the blocked image itself
    /// (`d_row_stride` = its row pitch). The column pass runs `Bᵀ` straight
    /// off that source; the row pass quantizes each `V` element group
    /// in-register (Eq. 4 with scale `alphas[t]` for Winograd-domain
    /// element `t = i·n + j`, plus the `+128` compensation when
    /// `compensate`) and calls `sink(t, line)` with its `lanes` bytes, in
    /// ascending `t` — the f32 `V` tile is never materialized.
    ///
    /// Bitwise identical to the interpreted transform followed by
    /// `quantize_f32_lanes_i8` per element group.
    pub fn input_tile_quantized_with(
        &self,
        vt: VecTier,
        d: &[f32],
        d_base: usize,
        d_row_stride: usize,
        alphas: &[f32],
        compensate: bool,
        s: &mut TransformScratch,
        mut sink: impl FnMut(usize, &[u8]),
    ) {
        let n = self.n();
        let lanes = s.lanes;
        debug_assert!(alphas.len() >= n * n);
        // Column pass: the `n` columns of a source row are contiguous, so
        // all of them are one call over `n·lanes` lanes.
        self.bt_tape
            .execute_f32(vt, n * lanes, d, d_base, d_row_stride, &mut s.tmp, 0, n * lanes);
        for i in 0..n {
            self.bt_tape.execute_quant_u8(
                vt,
                lanes,
                &s.tmp,
                i * n * lanes,
                lanes,
                alphas,
                i * n,
                1,
                compensate,
                &mut s.row_u8,
                0,
                lanes,
            );
            for (j, line) in s.row_u8[..n * lanes].chunks_exact(lanes).enumerate() {
                sink(i * n + j, line);
            }
        }
    }

    /// [`Self::input_tile_quantized_with`] from a gathered `n×n` patch into
    /// a `q` tile of the same layout (`u8` lanes per element group).
    pub fn input_tile_quantized(
        &self,
        vt: VecTier,
        d: &[f32],
        alphas: &[f32],
        compensate: bool,
        q: &mut [u8],
        s: &mut TransformScratch,
    ) {
        let lanes = s.lanes;
        let stride = self.n() * lanes;
        self.input_tile_quantized_with(vt, d, 0, stride, alphas, compensate, s, |t, line| {
            q[t * lanes..(t + 1) * lanes].copy_from_slice(line);
        });
    }

    /// Output transform with the **fused dequantize prologue**: consumes
    /// the raw `i32` GEMM accumulator tile `z` directly, folding the
    /// `1/(α_V·α_U)` dequantization (Eq. 6) into the column-pass loads.
    /// Element `t = k·n + j` of `z` is scaled by `inv_alphas[t·stride]`
    /// (`stride = 1` per-element, `stride = 0` broadcasts a single scale).
    ///
    /// Bitwise identical to `dequantize_i32_lanes` into a scratch f32 tile
    /// followed by [`Self::output_tile_f32`].
    pub fn output_tile_dequantized(
        &self,
        vt: VecTier,
        z: &[i32],
        inv_alphas: &[f32],
        stride: usize,
        y: &mut [f32],
        s: &mut TransformScratch,
    ) {
        let (m, lanes) = (self.m(), s.lanes);
        assert!(y.len() >= m * m * lanes);
        self.output_columns_dequantized(vt, z, inv_alphas, stride, s);
        // SAFETY: `y` holds the `m` rows of `m·lanes` values at pitch
        // `m·lanes` (asserted above) and is exclusively borrowed.
        unsafe {
            self.output_rows_post_strided(vt, TapePostOps::default(), 0, y.as_mut_ptr(), m * lanes, s)
        }
    }

    /// The column pass of the output transform with the **fused dequantize
    /// prologue**: `z` is a tile's raw `i32` accumulators, element
    /// `t = k·n + j` scaled by `inv_alphas[t·stride]` on load (`stride = 0`
    /// broadcasts one scale). Leaves `Aᵀ·Z` in the scratch for
    /// [`Self::output_rows_post_strided`].
    pub fn output_columns_dequantized(
        &self,
        vt: VecTier,
        z: &[i32],
        inv_alphas: &[f32],
        stride: usize,
        s: &mut TransformScratch,
    ) {
        let (n, lanes) = (self.n(), s.lanes);
        debug_assert!(stride == 0 || inv_alphas.len() >= n * n);
        for j in 0..n {
            self.at_tape.execute_dequant_f32(
                vt,
                lanes,
                z,
                j * lanes,
                n * lanes,
                inv_alphas,
                j * stride,
                n * stride,
                &mut s.tmp,
                j * lanes,
                n * lanes,
            );
        }
    }

    /// The column pass of the output transform over f32 sums, loaded as
    /// they are. The `n` columns of a row are contiguous, so all of them are
    /// one call over `n·lanes` lanes.
    pub fn output_columns_f32(&self, vt: VecTier, z: &[f32], s: &mut TransformScratch) {
        let (n, lanes) = (self.n(), s.lanes);
        self.at_tape
            .execute_f32(vt, n * lanes, z, 0, n * lanes, &mut s.tmp, 0, n * lanes);
    }

    /// The row pass of the output transform over the column pass's result
    /// in the scratch, with the **post-op epilogue** fused and the tile
    /// stored **in place**: output row `i` is the `m·lanes` values at
    /// `y + i·y_row_stride` (a tile buffer, or a window of the blocked
    /// output image at its row pitch), and row `i` of the residual starts
    /// `i·res_row_stride` past `post.residual`'s base (its slot stride is
    /// the pixel pitch, as in [`TapePostOps`]).
    ///
    /// # Safety
    ///
    /// For every `i < m`, `y + i·y_row_stride` must be valid for `m·lanes`
    /// writes that no other reference or thread touches during the call.
    pub unsafe fn output_rows_post_strided(
        &self,
        vt: VecTier,
        post: TapePostOps<'_>,
        res_row_stride: usize,
        y: *mut f32,
        y_row_stride: usize,
        s: &mut TransformScratch,
    ) {
        let (n, m, lanes) = (self.n(), self.m(), s.lanes);
        for i in 0..m {
            // SAFETY: the caller's contract — row `i` is `m·lanes` writable
            // values nothing else touches.
            let row = unsafe { core::slice::from_raw_parts_mut(y.add(i * y_row_stride), m * lanes) };
            let row_post = TapePostOps {
                residual: post
                    .residual
                    .map(|(buf, base, slot)| (buf, base + i * res_row_stride, slot)),
                ..post
            };
            self.at_tape
                .execute_f32_post(vt, lanes, &s.tmp, i * n * lanes, lanes, row_post, row, 0, lanes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot transform of a scalar (`lanes = 1`) `F(m, r)` tile by one
    /// of the interpreted tile methods, into `len` outputs.
    fn one_shot<T: Copy + Default>(
        m: usize,
        r: usize,
        x: &[T],
        len: usize,
        f: fn(&TileTransformer, &[T], &mut [T], &mut TransformScratch),
    ) -> Vec<T> {
        let t = TileTransformer::new(m, r).unwrap();
        let mut y = vec![T::default(); len];
        f(&t, x, &mut y, &mut t.make_scratch(1));
        y
    }

    /// Dense reference: out = L · tile · Lᵀ-style products via explicit loops.
    fn dense_2d(l: &[f32], lr: usize, lc: usize, tile: &[f32], tn: usize) -> Vec<f32> {
        // first: e = L (lr×lc) · tile (lc×tn)
        let mut e = vec![0.0f32; lr * tn];
        for i in 0..lr {
            for j in 0..tn {
                for k in 0..lc {
                    e[i * tn + j] += l[i * lc + k] * tile[k * tn + j];
                }
            }
        }
        // second: out = e · Lᵀ  => out (lr×lr)
        let mut out = vec![0.0f32; lr * lr];
        for i in 0..lr {
            for j in 0..lr {
                for k in 0..tn {
                    out[i * lr + j] += e[i * tn + k] * l[j * lc + k];
                }
            }
        }
        out
    }

    fn tile(n: usize, seed: f32) -> Vec<f32> {
        (0..n * n)
            .map(|i| ((i as f32 + seed) * 0.7).sin() * 2.0)
            .collect()
    }

    #[test]
    fn input_transform_matches_dense_btdb() {
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3)] {
            let t = TileTransformer::new(m, r).unwrap();
            let n = t.n();
            let d = tile(n, 0.3);
            let v = one_shot(m, r, &d, n * n, TileTransformer::input_tile_f32);
            let bt = t.matrices().bt.to_f32();
            let want = dense_2d(&bt, n, n, &d, n);
            for (a, b) in v.iter().zip(&want) {
                assert!((a - b).abs() < 1e-2 * b.abs().max(1.0), "F({m},{r}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn filter_transform_matches_dense_ggg() {
        for (m, r) in [(2usize, 3usize), (4, 3)] {
            let t = TileTransformer::new(m, r).unwrap();
            let n = t.n();
            let g = tile(r, 1.7);
            let u = one_shot(m, r, &g, n * n, TileTransformer::filter_tile_f32);
            let gm = t.matrices().g.to_f32();
            let want = dense_2d(&gm, n, r, &g, r);
            for (a, b) in u.iter().zip(&want) {
                assert!((a - b).abs() < 1e-3, "F({m},{r}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn output_transform_matches_dense_atza() {
        for (m, r) in [(2usize, 3usize), (4, 3)] {
            let t = TileTransformer::new(m, r).unwrap();
            let n = t.n();
            let z = tile(n, 2.9);
            let y = one_shot(m, r, &z, m * m, TileTransformer::output_tile_f32);
            let at = t.matrices().at.to_f32();
            let want = dense_2d(&at, m, n, &z, n);
            for (a, b) in y.iter().zip(&want) {
                assert!((a - b).abs() < 1e-2, "F({m},{r}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn full_winograd_tile_equals_direct_convolution() {
        // The end-to-end identity over one tile and one channel:
        // Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A == valid correlation of d with g.
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (3, 3)] {
            let t = TileTransformer::new(m, r).unwrap();
            let n = t.n();
            let d = tile(n, 0.11);
            let g = tile(r, 5.2);
            let v = one_shot(m, r, &d, n * n, TileTransformer::input_tile_f32);
            let u = one_shot(m, r, &g, n * n, TileTransformer::filter_tile_f32);
            let z: Vec<f32> = v.iter().zip(&u).map(|(a, b)| a * b).collect();
            let y = one_shot(m, r, &z, m * m, TileTransformer::output_tile_f32);
            for oy in 0..m {
                for ox in 0..m {
                    let mut want = 0.0f32;
                    for ky in 0..r {
                        for kx in 0..r {
                            want += d[(oy + ky) * n + (ox + kx)] * g[ky * r + kx];
                        }
                    }
                    let got = y[oy * m + ox];
                    let tol = 1e-3 * want.abs().max(1.0) * (m as f32);
                    assert!(
                        (got - want).abs() < tol,
                        "F({m},{r}) at ({oy},{ox}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn integer_input_transform_exact_range_growth() {
        // Integer transform of a max-magnitude INT8 tile must stay within
        // growth(BT)^2 · 127 (paper §2.2) — checked exactly in i32.
        let t = TileTransformer::new(4, 3).unwrap();
        let n = t.n();
        let d = vec![127i32; n * n];
        let v = one_shot(4, 3, &d, n * n, TileTransformer::input_tile_i32);
        let max = v.iter().map(|x| x.abs()).max().unwrap();
        assert!(max <= 100 * 127, "max={max}");
        // And alternating-sign worst case.
        let d: Vec<i32> = (0..n * n)
            .map(|i| if (i / n + i % n).is_multiple_of(2) { 127 } else { -127 })
            .collect();
        let v = one_shot(4, 3, &d, n * n, TileTransformer::input_tile_i32);
        assert!(v.iter().all(|x| x.abs() <= 100 * 127));
    }

    #[test]
    fn ensure_scratch_grows_then_reuses() {
        let small = TileTransformer::new(2, 3).unwrap();
        let big = TileTransformer::new(6, 3).unwrap();
        let mut s = TransformScratch::empty();
        small.ensure_scratch(&mut s, 16);
        big.ensure_scratch(&mut s, 64);
        let tmp_ptr = s.tmp.as_ptr();
        // Shrinking requests keep the high-water buffers (no realloc, no move).
        small.ensure_scratch(&mut s, 16);
        assert_eq!(s.tmp.as_ptr(), tmp_ptr);
        assert_eq!(s.lanes, 16);
        // And the shared scratch still computes correctly at each width.
        let n = small.n();
        let d: Vec<f32> = (0..n * n * 16).map(|i| (i as f32).cos()).collect();
        let mut v = vec![0.0f32; n * n * 16];
        small.input_tile_f32(&d, &mut v, &mut s);
        for lane in [0usize, 15] {
            let d1: Vec<f32> = (0..n * n).map(|e| d[e * 16 + lane]).collect();
            let v1 = one_shot(2, 3, &d1, n * n, TileTransformer::input_tile_f32);
            for e in 0..n * n {
                assert!((v[e * 16 + lane] - v1[e]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn lane_wise_matches_scalar() {
        let t = TileTransformer::new(4, 3).unwrap();
        let n = t.n();
        let lanes = 64;
        let d: Vec<f32> = (0..n * n * lanes).map(|i| ((i % 97) as f32 - 48.0) / 7.0).collect();
        let mut v = vec![0.0f32; n * n * lanes];
        let mut s = t.make_scratch(lanes);
        t.input_tile_f32(&d, &mut v, &mut s);
        // Check a few lanes against scalar execution.
        for lane in [0usize, 1, 31, 63] {
            let d1: Vec<f32> = (0..n * n).map(|e| d[e * lanes + lane]).collect();
            let v1 = one_shot(4, 3, &d1, n * n, TileTransformer::input_tile_f32);
            for e in 0..n * n {
                assert!((v[e * lanes + lane] - v1[e]).abs() < 1e-3);
            }
        }
    }
}
