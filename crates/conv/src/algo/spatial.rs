//! The spatial-domain front end the down-scaling and up-casting baselines
//! share (paper §2.3, Fig. 2): both quantize the input **once, in the
//! spatial domain**, into a padded INT8 image, cut INT8 tiles out of it for
//! the integer `Bᵀ`, and finish with the same de-quantizing output
//! transform. What they do between those — squeeze the transformed tile
//! back to INT8, or keep it in INT16 — and which GEMM they run stays in the
//! executors; these are the bodies their phase closures call.

use core::ops::Range;

use lowino_gemm::{GemmShape, ZPanel};
use lowino_simd::vecf32::VecTier;
use lowino_tensor::{round_up, AlignedBuf, BlockedImage, ConvShape, TileGeometry, LANES};
use lowino_winograd::TileTransformer;

use crate::scratch::{ensure_f32, ensure_i32, WorkerScratch};
use crate::tiles::{scatter_output_tile, tile_coords, tile_origin};

/// A layer's spatially-quantized padded input and the tile geometry that
/// reads it.
pub(crate) struct SpatialInt8 {
    pub(crate) spec: ConvShape,
    pub(crate) geom: TileGeometry,
    pub(crate) tt: TileTransformer,
    /// The spatial-domain input scale.
    pub(crate) alpha_in: f32,
    /// Whether the generated f32 `Bᵀ` is exact on this tile size's INT8
    /// tiles ([`TileTransformer::input_exact_in_f32`]) — then phase ① part B
    /// runs it instead of the interpreted integer codelets.
    exact_in_f32: bool,
    /// `[B][hp][wp][C_p]` i8 — filled once per execute, so overlapping
    /// tiles re-read INT8 bytes instead of re-quantizing FP32 (the oneDNN
    /// behaviour the paper contrasts with in §5.3: its transform reads 4×
    /// fewer input bytes than LoWino's). The halo stays zero.
    qbuf: AlignedBuf<i8>,
    /// Padded dims: ragged edge tiles read past `H + 2p`, so the buffer
    /// covers the full tile extent.
    hp: usize,
    wp: usize,
    cp: usize,
}

/// One 64-lane group of an integer-transformed tile: exact integers, in
/// f32 where the generated `Bᵀ` kernel is exact on them, else in i32 from
/// the interpreted codelets.
pub(crate) enum TileLanes<'a> {
    F32(&'a [f32]),
    I32(&'a [i32]),
}

impl SpatialInt8 {
    pub(crate) fn new(
        spec: ConvShape,
        geom: TileGeometry,
        tt: TileTransformer,
        alpha_in: f32,
    ) -> Self {
        let cp = round_up(spec.in_c, LANES);
        let hp = ((geom.tiles_h - 1) * geom.m + geom.n).max(spec.h + 2 * spec.pad);
        let wp = ((geom.tiles_w - 1) * geom.m + geom.n).max(spec.w + 2 * spec.pad);
        Self {
            spec,
            geom,
            exact_in_f32: tt.input_exact_in_f32(127),
            tt,
            alpha_in,
            qbuf: AlignedBuf::zeroed(spec.batch * hp * wp * cp),
            hp,
            wp,
            cp,
        }
    }

    /// The stage-② GEMM of the layer, in channels.
    pub(crate) fn gemm_shape(&self) -> GemmShape {
        let (spec, geom) = (&self.spec, &self.geom);
        GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c }
    }

    /// Input channel groups (`C_p / 64`).
    pub(crate) fn c_blocks(&self) -> usize {
        self.cp / LANES
    }

    /// The quantized buffer, halo and padding channels (all zero) included.
    pub(crate) fn quantized(&self) -> &[i8] {
        self.qbuf.as_slice()
    }

    fn offset(&self, b: usize, y: usize, x: usize, cb: usize) -> usize {
        ((b * self.hp + y) * self.wp + x) * self.cp + cb * LANES
    }

    /// Phase ① part A over image rows `rows` (of `B·H`): quantize the input
    /// ONCE into the padded INT8 buffer (❶ of Fig. 2).
    ///
    /// # Safety
    ///
    /// No other thread may read the buffer or quantize any of `rows` during
    /// the call (one task per `(b, y)` row; the tile gather runs after the
    /// phase barrier).
    pub(crate) unsafe fn quantize_rows(&self, input: &BlockedImage, rows: Range<usize>) {
        let (spec, c_blocks, alpha_in) = (&self.spec, self.c_blocks(), self.alpha_in);
        let tracing = lowino_trace::enabled();
        let mut saturated = 0u64;
        let mut values = 0u64;
        for row in rows {
            let (b, y) = (row / spec.h, row % spec.h);
            for x in 0..spec.w {
                for cb in 0..c_blocks {
                    let lanes = input.lanes(b, cb, y, x);
                    let off = self.offset(b, y + spec.pad, x + spec.pad, cb);
                    debug_assert!(off + LANES <= self.qbuf.len());
                    // SAFETY: the 64 bytes at `off` are inside the buffer and
                    // belong to row `(b, y)`, which the caller's contract
                    // makes this call's alone.
                    unsafe {
                        let dst = self.qbuf.as_ptr().add(off) as *mut i8;
                        for (l, &s) in lanes.iter().enumerate() {
                            let qv = (s * alpha_in).round_ties_even().clamp(-127.0, 127.0) as i8;
                            *dst.add(l) = qv;
                            if tracing && (qv == 127 || qv == -127) {
                                saturated += 1;
                            }
                        }
                    }
                    if tracing {
                        values += LANES as u64;
                    }
                }
            }
        }
        if tracing {
            lowino_trace::counter("quant/saturated", saturated);
            lowino_trace::counter("quant/values", values);
        }
    }

    /// Channel group `cb` of `tile` as an `n×n×64` patch of widened INT8
    /// values. The pad offset shifts the tile's origin into the padded
    /// buffer, so indices are always in bounds and halo pixels read zeros.
    fn gather_tile<T: From<i8>>(&self, tile: usize, cb: usize, patch: &mut [T]) {
        let (spec, n) = (&self.spec, self.geom.n);
        let (b, ty, tx) = tile_coords(&self.geom, tile);
        let (y0, x0) = tile_origin(spec, &self.geom, ty, tx);
        for i in 0..n {
            for j in 0..n {
                let yy = (y0 + i as isize + spec.pad as isize) as usize;
                let xx = (x0 + j as isize + spec.pad as isize) as usize;
                let off = self.offset(b, yy, xx, cb);
                let src = &self.qbuf.as_slice()[off..off + LANES];
                let dst = &mut patch[(i * n + j) * LANES..][..LANES];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = T::from(s);
                }
            }
        }
    }

    /// Phase ① part B over `tasks` of the `(cb, tile)` grid: the exact
    /// integer `Bᵀ d B` of each INT8 tile, handed to `sink(t, tile, cb,
    /// lanes)` one 64-lane group per Winograd-domain element `t`. The values
    /// are the same integers either way ([`TileLanes`]); what the executor
    /// squeezes them into is its own business.
    pub(crate) fn input_tiles(
        &self,
        vt: VecTier,
        tasks: Range<usize>,
        ws: &mut WorkerScratch,
        mut sink: impl FnMut(usize, usize, usize, TileLanes<'_>),
    ) {
        let (total, t_count) = (self.geom.total, self.geom.t());
        let len = t_count * LANES;
        self.tt.ensure_scratch(&mut ws.transform, LANES);
        if self.exact_in_f32 {
            let (patch, v) = (ensure_f32(&mut ws.patch_f, len), ensure_f32(&mut ws.tile_f, len));
            for task in tasks {
                let (cb, tile) = (task / total, task % total);
                self.gather_tile(tile, cb, patch);
                self.tt.input_tile_f32_compiled(vt, patch, v, &mut ws.transform);
                for (t, lanes) in v.chunks_exact(LANES).enumerate() {
                    sink(t, tile, cb, TileLanes::F32(lanes));
                }
            }
        } else {
            let (patch, v) = (ensure_i32(&mut ws.patch_i, len), ensure_i32(&mut ws.tile_i, len));
            for task in tasks {
                let (cb, tile) = (task / total, task % total);
                self.gather_tile(tile, cb, patch);
                self.tt.input_tile_i32(patch, v, &mut ws.transform);
                for (t, lanes) in v.chunks_exact(LANES).enumerate() {
                    sink(t, tile, cb, TileLanes::I32(lanes));
                }
            }
        }
    }

    /// Phase ③ over `tasks` of the `(kg, tile)` grid: fused de-quantize +
    /// output transform of each tile's `T×64` block of `z` (the one inverse
    /// scale `inv` is folded into the compiled tape's i32→f32 loads,
    /// broadcast across all `t`), scattered into `output`.
    ///
    /// # Safety
    ///
    /// No other thread may write the output tiles of `tasks` during the call
    /// (output tiles never overlap; one task per tile suffices).
    pub(crate) unsafe fn output_tiles(
        &self,
        vt: VecTier,
        z: &ZPanel,
        inv: f32,
        output: &BlockedImage,
        tasks: Range<usize>,
        ws: &mut WorkerScratch,
    ) {
        let (geom, m) = (&self.geom, self.geom.m);
        let WorkerScratch {
            transform, tile_f, ..
        } = ws;
        self.tt.ensure_scratch(transform, LANES);
        let y = ensure_f32(tile_f, m * m * LANES);
        for task in tasks {
            let (kg, tile) = (task / geom.total, task % geom.total);
            let (b, ty, tx) = tile_coords(geom, tile);
            let block = z.tile_block(kg, tile);
            self.tt
                .output_tile_dequantized(vt, block, core::slice::from_ref(&inv), 0, y, transform);
            // SAFETY: the caller's contract — this call is the tile's only
            // writer.
            unsafe {
                scatter_output_tile(output, b, kg, ty * m, tx * m, m, y);
            }
        }
    }
}
