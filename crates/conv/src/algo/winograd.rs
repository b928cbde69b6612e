//! The one Winograd pipeline (paper Fig. 3) and what its schemes vary.
//!
//! Fig. 2a, Fig. 2b and Fig. 3 draw the same ① → ② → ③ pipeline three times
//! and move one box — where the quantizer sits (Eq. 4–7) — plus the width of
//! the GEMM operands. [`WinogradConv`] is that pipeline once; a [`Scheme`]
//! names the three things that move:
//!
//! 1. **how a tile becomes `V` lines** — the *source* (the f32 blocked
//!    image, read in place where the tile is interior and halo-gathered
//!    otherwise; or the padded INT8 image a pre-pass phase quantized once,
//!    [`SpatialInt8`]) and the *row-pass epilogue*
//!    ([`GemmElem::lines_from_f32`]: quantize with `α[t]` + 128 → u8, exact
//!    cast → i16, none → f32);
//! 2. **the GEMM element** ([`GemmElem`]): the panel family, the
//!    [`GemmTasks`] constructor and `Z`'s lane type;
//! 3. **the column-pass prologue of ③** ([`ZLane`]): `i32 · inv[t]` with
//!    stride 1 (per-position scales) or 0 (one scale), or f32 as is.
//!
//! Everything else exists once: the I/O and post-op validation, the blocking
//! resolution, the lazily allocated `V`/`Z` panels, the per-tile bodies
//! ([`TileBodies`]: interior tiles read in place, full tiles stored straight
//! into the output with bias / residual / ReLU fused into the row pass,
//! ragged tiles through `gather_patch` / `scatter_output_tile`), the
//! saturation tally and the two schedules that run them:
//!
//! * **staged** (the paper's, §4.2.1/§4.3.2): the phases of one pool job
//!   separated by barriers — an optional pre-pass, then ①, ②, ③ — handing
//!   whole-layer `V` and `Z` panels from one to the next;
//! * **depth-first**: one pool phase over blocks of `nb` consecutive tiles;
//!   a worker takes a block through ① → ② → ③ in its own `V`/`Z` blocks,
//!   which together with the shared `U` sit in that core's L2. It needs the
//!   block GEMM (`lowino_gemm::BlockGemm`, u8×i8 only) and a tile that does
//!   not wait for a pre-pass, so it is LoWino's alone, chosen per layer by
//!   [`chain_block`] from the shapes and the host's cache — never by a switch.

use core::marker::PhantomData;
use core::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lowino_gemm::panels::{Lane, ZPanelOf};
use lowino_gemm::{
    normalize_for, BlockGemm, Blocking, Element, GemmShape, GemmTasks, UPanel, UPanelF32,
    UPanelI16, VPanel, VPanelF32, VPanelI16,
};
use lowino_quant::{count_saturated_i8, count_saturated_u8};
use lowino_simd::vecf32::{requantize_i32_lanes, VecTier};
use lowino_simd::{store::stream_fence, stream_store_u8_64, SimdTier};
use lowino_tensor::{round_up, AlignedBuf, BlockedImage, ConvShape, TileGeometry, LANES};
use lowino_winograd::{TapePostOps, TileTransformer, TransformScratch};

use crate::algo::{check_io, resolve_blocking, Algorithm, ConvExecutor, ConvPostOps};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::scratch::{ensure_f32, ensure_i32, ensure_u8, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;
use crate::tiles::{gather_patch, scatter_output_tile, tile_coords, tile_origin};

/// One of the paper's Winograd designs, as the executor sees it: its GEMM
/// element (which fixes ①'s epilogue and ③'s prologue), its names, and
/// whether planners seed its blocking. The tile source and the scales are
/// data its constructor hands to [`WinogradConv::assemble`].
pub trait Scheme: Send + Sync + 'static {
    /// Strategy point 2, and through its lane types points 1 and 3.
    type Elem: GemmElem;
    /// Trace span names of the pre-pass and phases ①, ②, ③.
    const SPANS: [&'static str; 4];
    /// Whether planners may seed stage ②'s blocking from the tuner
    /// (`ConvExecutor::{gemm_shape, set_blocking}`).
    const SEEDED: bool = true;
    /// The scheme's [`Algorithm`] for tile size `m`.
    fn algorithm(m: usize) -> Algorithm;
}

/// Strategy point 3 — a lane type of `Z` and how ③'s column pass loads it.
pub trait ZLane: Lane {
    /// The column pass over one tile's `T×64` block `z`, left in `s` for the
    /// row pass: `i32 · inv[t]` (or `· inv[0]` where there is one scale), or
    /// f32 as is.
    fn load_columns(tt: &TileTransformer, vt: VecTier, z: &[Self], inv: &[f32], s: &mut TransformScratch);
}

impl ZLane for i32 {
    fn load_columns(tt: &TileTransformer, vt: VecTier, z: &[i32], inv: &[f32], s: &mut TransformScratch) {
        tt.output_columns_dequantized(vt, z, inv, usize::from(inv.len() > 1), s);
    }
}

impl ZLane for f32 {
    fn load_columns(tt: &TileTransformer, vt: VecTier, z: &[f32], _inv: &[f32], s: &mut TransformScratch) {
        tt.output_columns_f32(vt, z, s);
    }
}

/// An f32 input tile where it lies: element `(i, j)` is the 64 lanes at
/// `d[base + i·row_stride + j·64 ..]` — a gathered patch (`row_stride = n·64`)
/// or a window of the blocked image itself (`row_stride` = its row pitch).
#[derive(Clone, Copy)]
pub struct TileSrc<'a> {
    d: &'a [f32],
    base: usize,
    row_stride: usize,
}

/// Where phase ① puts the `T` lines of one `(tile, channel group)`: line `t`
/// is the 64 lanes at `base + t·t_stride`.
#[derive(Clone, Copy)]
pub struct VLines<L> {
    base: *mut L,
    t_stride: usize,
    /// Non-temporal stores (the staged u8 panel, read after a barrier by
    /// other threads) or ordinary ones (the worker's own cache-resident
    /// block; every i16 / f32 line).
    stream: bool,
}

impl<L> VLines<L> {
    /// Line `t`.
    ///
    /// # Safety
    ///
    /// For every `t < T`, `base + t·t_stride` must be 64-byte aligned and
    /// valid for 64 lanes that no other reference or thread touches while
    /// the returned slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn line(&self, t: usize) -> &mut [L] {
        // SAFETY: the caller's contract.
        unsafe {
            let dst = self.base.add(t * self.t_stride);
            debug_assert!(dst.addr().is_multiple_of(LANES));
            core::slice::from_raw_parts_mut(dst, LANES)
        }
    }
}

impl VLines<u8> {
    /// Store one quantized line and return how many of its values saturated,
    /// counted while the line is still hot.
    ///
    /// # Safety
    ///
    /// As [`Self::line`].
    unsafe fn put(&self, tier: SimdTier, t: usize, line: &[u8]) -> u64 {
        let line: &[u8; LANES] = line.try_into().expect("one V line per call");
        // SAFETY: the caller's contract.
        let dst = unsafe { self.line(t) };
        if self.stream {
            stream_store_u8_64(tier, dst, line);
        } else {
            dst.copy_from_slice(line);
        }
        count_saturated_u8(line)
    }
}

/// The staged schedule's whole-layer panels of one element.
pub type Panels<E> = (<E as GemmElem>::V, ZPanelOf<<E as GemmElem>::Z>);

/// Strategy point 2 — the GEMM element: panel family, plan constructor and
/// `Z` lane — and the lane-typed half of point 1, the row-pass epilogue that
/// turns a transformed tile into `V` lines of that family.
pub trait GemmElem: Sized + Send + Sync + 'static {
    /// The kernel's element.
    const ELEMENT: Element;
    /// Whether ①'s epilogue quantizes (then its clamps are the scheme's
    /// saturation signal; otherwise the pre-pass's are).
    const QUANTIZED_V: bool = false;
    /// `V`'s lane type.
    type Lane: Copy + Send + Sync + 'static;
    /// Transformed-input panel.
    type V: Send + Sync;
    /// Transformed-filter panel.
    type U: Send + Sync;
    /// `Z`'s lane type (strategy point 3).
    type Z: ZLane;

    /// A zeroed `V` panel for `shape`.
    fn v_panel(shape: &GemmShape) -> Self::V;

    /// The lines of `(tile, cb)` in the staged panel.
    ///
    /// # Safety
    ///
    /// `tile` and `cb` must be inside the panel, and no two live [`VLines`]
    /// of one `(tile, cb)` may be written concurrently.
    unsafe fn v_lines(v: &Self::V, tile: usize, cb: usize) -> VLines<Self::Lane>;

    /// Plan stage ② over this element's panels.
    fn plan<'a>(
        tier: SimdTier,
        shape: &GemmShape,
        blocking: &Blocking,
        v: &'a Self::V,
        u: &'a Self::U,
        z: &'a mut ZPanelOf<Self::Z>,
    ) -> GemmTasks<'a, Self::Z>;

    /// ①'s transform of the f32 tile `src`, epilogue included, every finished
    /// line stored to `lines`. Returns the saturated values.
    ///
    /// # Safety
    ///
    /// As [`VLines::line`] for every `t < T`.
    unsafe fn lines_from_f32(
        b: &TileBodies<'_, Self>,
        src: TileSrc<'_>,
        transform: &mut TransformScratch,
        tile: &mut [f32],
        lines: VLines<Self::Lane>,
    ) -> u64;

    /// The same epilogue over an integer-transformed tile `v` — exact
    /// integers past f32's exact range (`F(6,3)` on INT8 tiles, which only
    /// the u8 epilogue is ever asked to squeeze).
    ///
    /// # Safety
    ///
    /// As [`VLines::line`] for every `t < T`.
    unsafe fn lines_from_i32(_b: &TileBodies<'_, Self>, _v: &[i32], _lines: VLines<Self::Lane>) -> u64 {
        unreachable!("only the down-scaling epilogue follows an integer transform")
    }

    /// Run the layer: staged, unless the element overrides.
    fn run(
        bodies: &TileBodies<'_, Self>,
        u: &Self::U,
        panels: &mut Option<Panels<Self>>,
        shape: &GemmShape,
        blocking: &Blocking,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        run_staged(bodies, u, panels, shape, blocking, ctx)
    }
}

macro_rules! gemm_elem {
    ($(#[$doc:meta])* $name:ident: $lane:ty, $v:ty, $u:ty, $z:ty, $plan:ident { $($items:tt)* }) => {
        $(#[$doc])*
        pub struct $name;

        impl GemmElem for $name {
            const ELEMENT: Element = Element::$name;
            type Lane = $lane;
            type V = $v;
            type U = $u;
            type Z = $z;

            fn v_panel(shape: &GemmShape) -> $v {
                <$v>::new(shape.t, shape.n, shape.c)
            }

            unsafe fn v_lines(v: &$v, tile: usize, cb: usize) -> VLines<$lane> {
                debug_assert!((cb + 1) * LANES <= v.cp());
                // SAFETY: `tile < N` and `cb·64 + 64 ≤ C_p` (the caller's
                // contract) keep line `t` inside row `(t, tile)`; rows are
                // `N·C_p` lanes apart and 64-byte aligned.
                let base = unsafe { v.row_ptr_shared(0, tile).add(cb * LANES) };
                VLines { base, t_stride: v.dims().1 * v.cp(), stream: true }
            }

            fn plan<'a>(
                tier: SimdTier,
                shape: &GemmShape,
                blocking: &Blocking,
                v: &'a $v,
                u: &'a $u,
                z: &'a mut ZPanelOf<$z>,
            ) -> GemmTasks<'a, $z> {
                GemmTasks::$plan(tier, shape, blocking, v, u, z)
            }

            $($items)*
        }
    };
}

gemm_elem! {
    /// `u8 × i8 → i32` under `vpdpbusd`: ①'s row pass quantizes each line
    /// in-register with `α[t]` and the +128 compensation (Eq. 4, §4.2.1).
    U8I8: u8, VPanel, UPanel, i32, plan {
        const QUANTIZED_V: bool = true;

        unsafe fn lines_from_f32(
            b: &TileBodies<'_, Self>,
            src: TileSrc<'_>,
            transform: &mut TransformScratch,
            _tile: &mut [f32],
            lines: VLines<u8>,
        ) -> u64 {
            let mut saturated = 0;
            // The f32 `V` tile is never materialized.
            let sink = |t: usize, line: &[u8]| {
                // SAFETY: the caller's contract.
                saturated += unsafe { lines.put(b.tier, t, line) };
            };
            b.tt.input_tile_quantized_with(b.vt, src.d, src.base, src.row_stride, b.quant, true, transform, sink);
            saturated
        }

        unsafe fn lines_from_i32(b: &TileBodies<'_, Self>, v: &[i32], lines: VLines<u8>) -> u64 {
            let mut q = [0u8; LANES];
            let mut saturated = 0;
            for (t, lanes) in v.chunks_exact(LANES).enumerate() {
                requantize_i32_lanes(b.vt, lanes, b.quant[t], true, &mut q);
                // SAFETY: the caller's contract.
                saturated += unsafe { lines.put(b.tier, t, &q) };
            }
            saturated
        }

        /// Depth-first where the tile needs no pre-pass and [`chain_block`]
        /// finds a block that fits the L2; staged otherwise.
        fn run(
            bodies: &TileBodies<'_, Self>,
            u: &UPanel,
            panels: &mut Option<Panels<Self>>,
            shape: &GemmShape,
            blocking: &Blocking,
            ctx: &mut ConvContext,
        ) -> Result<StageTimings, ExecError> {
            let chain = match bodies.spatial {
                None => chain_block(shape, blocking.row_blk, ctx.threads(), ctx.cache.l2_bytes),
                Some(_) => None,
            };
            match chain {
                Some(nb) => run_chained(bodies, &BlockGemm::plan(bodies.tier, shape, blocking, u), nb, ctx),
                None => run_staged(bodies, u, panels, shape, blocking, ctx),
            }
        }
    }
}

gemm_elem! {
    /// `i16 × i16 → i32` under `vpdpwssd`: the integer transform of an INT8
    /// tile is kept exactly, in a wider lane (Fig. 2a ❶).
    I16: i16, VPanelI16, UPanelI16, i32, plan_i16 {
        unsafe fn lines_from_f32(
            b: &TileBodies<'_, Self>,
            src: TileSrc<'_>,
            transform: &mut TransformScratch,
            tile: &mut [f32],
            lines: VLines<i16>,
        ) -> u64 {
            // SAFETY: the caller's contract. Exact: capacity is checked at
            // plan time.
            unsafe { exact_lines(b, src, transform, tile, lines, |x| x as i16) }
        }
    }
}

gemm_elem! {
    /// `f32 × f32 → f32`: no quantizer anywhere.
    F32: f32, VPanelF32, UPanelF32, f32, plan_f32 {
        unsafe fn lines_from_f32(
            b: &TileBodies<'_, Self>,
            src: TileSrc<'_>,
            transform: &mut TransformScratch,
            tile: &mut [f32],
            lines: VLines<f32>,
        ) -> u64 {
            // SAFETY: the caller's contract.
            unsafe { exact_lines(b, src, transform, tile, lines, |x| x) }
        }
    }
}

/// The non-quantizing epilogues: transform into the f32 `tile`, then `cast`
/// each lane into its line. Nothing saturates.
///
/// # Safety
///
/// As [`VLines::line`] for every `t < T`.
unsafe fn exact_lines<E: GemmElem>(
    b: &TileBodies<'_, E>,
    src: TileSrc<'_>,
    transform: &mut TransformScratch,
    tile: &mut [f32],
    lines: VLines<E::Lane>,
    cast: impl Fn(f32) -> E::Lane,
) -> u64 {
    b.tt.input_tile_f32_strided(b.vt, src.d, src.base, src.row_stride, tile, transform);
    for (t, lanes) in tile.chunks_exact(LANES).enumerate() {
        // SAFETY: the caller's contract.
        for (dst, &x) in unsafe { lines.line(t) }.iter_mut().zip(lanes) {
            *dst = cast(x);
        }
    }
    0
}

/// The other tile source (Fig. 2 ❶): the layer's input quantized **once, in
/// the spatial domain**, into a padded INT8 image by a pre-pass phase, so
/// overlapping tiles re-read INT8 bytes instead of re-quantizing FP32 (the
/// oneDNN behaviour the paper contrasts with in §5.3: its transform reads 4×
/// fewer input bytes than LoWino's).
pub struct SpatialInt8 {
    /// The spatial-domain input scale.
    alpha_in: f32,
    /// Whether the generated f32 `Bᵀ` is exact on this tile size's INT8
    /// tiles ([`TileTransformer::input_exact_in_f32`]); else phase ① runs the
    /// interpreted integer codelets.
    exact_in_f32: bool,
    /// `[B][hp][wp][C_p]` i8, filled once per execute; the halo stays zero.
    qbuf: AlignedBuf<i8>,
    /// Padded dims: ragged edge tiles read past `H + 2p`, so the buffer
    /// covers the full tile extent.
    hp: usize,
    wp: usize,
    cp: usize,
}

impl SpatialInt8 {
    pub(super) fn new(spec: &ConvShape, geom: &TileGeometry, tt: &TileTransformer, alpha_in: f32) -> Self {
        let cp = round_up(spec.in_c, LANES);
        let hp = ((geom.tiles_h - 1) * geom.m + geom.n).max(spec.h + 2 * spec.pad);
        let wp = ((geom.tiles_w - 1) * geom.m + geom.n).max(spec.w + 2 * spec.pad);
        Self {
            alpha_in,
            exact_in_f32: tt.input_exact_in_f32(127),
            qbuf: AlignedBuf::zeroed(spec.batch * hp * wp * cp),
            hp,
            wp,
            cp,
        }
    }

    fn offset(&self, b: usize, y: usize, x: usize, cb: usize) -> usize {
        ((b * self.hp + y) * self.wp + x) * self.cp + cb * LANES
    }

    /// The pre-pass over image rows `rows` (of `B·H`). Returns how many
    /// values sit on the ±127 clamp bounds.
    ///
    /// # Safety
    ///
    /// No other thread may read the buffer or quantize any of `rows` during
    /// the call (one task per `(b, y)` row; tiles are cut after the phase
    /// barrier).
    unsafe fn quantize_rows(&self, spec: &ConvShape, input: &BlockedImage, rows: Range<usize>) -> u64 {
        let mut saturated = 0;
        for row in rows {
            let (b, y) = (row / spec.h, row % spec.h);
            for x in 0..spec.w {
                for cb in 0..self.cp / LANES {
                    let off = self.offset(b, y + spec.pad, x + spec.pad, cb);
                    debug_assert!(off + LANES <= self.qbuf.len());
                    // SAFETY: the 64 bytes at `off` are inside the buffer and
                    // belong to row `(b, y)`, which the caller's contract
                    // makes this call's alone.
                    let dst = unsafe {
                        core::slice::from_raw_parts_mut(self.qbuf.as_ptr().add(off) as *mut i8, LANES)
                    };
                    for (q, &s) in dst.iter_mut().zip(input.lanes(b, cb, y, x)) {
                        *q = (s * self.alpha_in).round_ties_even().clamp(-127.0, 127.0) as i8;
                    }
                    saturated += count_saturated_i8(dst);
                }
            }
        }
        saturated
    }

    /// Channel group `cb` of the tile at `(b, y0, x0)` as an `n×n×64` patch
    /// of widened INT8 values. The pad offset shifts the origin into the
    /// padded buffer, so indices are always in bounds and halo pixels read
    /// zeros.
    fn gather_tile<T: From<i8>>(
        &self,
        pad: usize,
        b: usize,
        (y0, x0): (isize, isize),
        cb: usize,
        n: usize,
        patch: &mut [T],
    ) {
        let (y0, x0) = ((y0 + pad as isize) as usize, (x0 + pad as isize) as usize);
        for i in 0..n {
            for j in 0..n {
                let off = self.offset(b, y0 + i, x0 + j, cb);
                let src = &self.qbuf.as_slice()[off..off + LANES];
                for (d, &s) in patch[(i * n + j) * LANES..][..LANES].iter_mut().zip(src) {
                    *d = T::from(s);
                }
            }
        }
    }
}

/// One worker's tile buffers, cut from its [`WorkerScratch`]: `patch` is the
/// gathered input patch of ① and the gathered residual tile of ③, `tile` the
/// f32 `V` tile of the non-quantizing epilogues and the clipped output tile
/// of ③; the integer pair is sized only where ① transforms in integers.
pub struct TileBufs<'w> {
    transform: &'w mut TransformScratch,
    patch: &'w mut [f32],
    tile: &'w mut [f32],
    patch_i: &'w mut [i32],
    tile_i: &'w mut [i32],
}

/// The per-tile bodies of phases ① and ③ — everything a tile needs except
/// where its Winograd-domain data lives, which each schedule passes in.
pub struct TileBodies<'a, E: GemmElem> {
    spec: ConvShape,
    geom: TileGeometry,
    tt: &'a TileTransformer,
    /// ①'s source when a pre-pass fills it; else the tile is cut from `input`.
    spatial: Option<&'a SpatialInt8>,
    /// The quantizing epilogue's scale per tile position.
    quant: &'a [f32],
    /// ③'s de-quantization factors: one per tile position, or one for all.
    inv: &'a [f32],
    input: &'a BlockedImage,
    output: &'a BlockedImage,
    post: &'a ConvPostOps<'a>,
    spans: [&'static str; 4],
    saturated: &'a AtomicU64,
    tier: SimdTier,
    vt: VecTier,
    _elem: PhantomData<E>,
}

impl<E: GemmElem> TileBodies<'_, E> {
    /// Size one worker's buffers for this layer (allocation-free once they
    /// have reached the high-water mark); the depth-first schedule's blocks
    /// ride along.
    fn bufs<'w>(
        &self,
        ws: &'w mut WorkerScratch,
    ) -> (TileBufs<'w>, &'w mut AlignedBuf<u8>, &'w mut AlignedBuf<i32>) {
        let WorkerScratch { transform, patch_f, tile_f, patch_i, tile_i, v_block, z_block, .. } = ws;
        self.tt.ensure_scratch(transform, LANES);
        let len = self.geom.t() * LANES;
        let int_len = if self.spatial.is_some_and(|sp| !sp.exact_in_f32) { len } else { 0 };
        let bufs = TileBufs {
            transform,
            patch: ensure_f32(patch_f, len),
            tile: ensure_f32(tile_f, len),
            patch_i: ensure_i32(patch_i, int_len),
            tile_i: ensure_i32(tile_i, int_len),
        };
        (bufs, v_block, z_block)
    }

    /// Phase ① for channel group `cb` of `tile`: the input transform with
    /// the scheme's epilogue fused into (or following) the row pass, every
    /// finished 64-channel `V` line written to `lines`. Interior tiles of
    /// the f32 image are transformed in place; tiles that overlap the
    /// zero-padding halo go through `gather_patch`, INT8-sourced ones
    /// through [`SpatialInt8::gather_tile`]. Returns how many of the tile's
    /// values saturated.
    ///
    /// # Safety
    ///
    /// As [`VLines::line`] for every `t < T`.
    unsafe fn input_tile(
        &self,
        tile: usize,
        cb: usize,
        bufs: &mut TileBufs<'_>,
        lines: VLines<E::Lane>,
    ) -> u64 {
        let (n, input) = (self.geom.n, self.input);
        let (b, ty, tx) = tile_coords(&self.geom, tile);
        let (y0, x0) = tile_origin(&self.spec, &self.geom, ty, tx);
        let (_, _, in_h, in_w) = input.dims();
        let patch_stride = n * LANES;
        let src = match self.spatial {
            Some(sp) if !sp.exact_in_f32 => {
                sp.gather_tile(self.spec.pad, b, (y0, x0), cb, n, &mut *bufs.patch_i);
                self.tt.input_tile_i32(bufs.patch_i, bufs.tile_i, bufs.transform);
                // SAFETY: the caller's contract.
                return unsafe { E::lines_from_i32(self, bufs.tile_i, lines) };
            }
            // The values are small integers, exact in f32 through both passes.
            Some(sp) => {
                sp.gather_tile(self.spec.pad, b, (y0, x0), cb, n, &mut *bufs.patch);
                TileSrc { d: bufs.patch, base: 0, row_stride: patch_stride }
            }
            None if y0 >= 0 && x0 >= 0 && y0 as usize + n <= in_h && x0 as usize + n <= in_w => {
                // Rows y0..y0+n and columns x0..x0+n are inside the image, so
                // all n×n lane groups are in bounds (safe slice reads; the
                // tape re-checks the span).
                let base = input.offset(b, cb, y0 as usize, x0 as usize);
                debug_assert!(base + ((n - 1) * in_w + n) * LANES <= input.data().len());
                TileSrc { d: input.data(), base, row_stride: in_w * LANES }
            }
            None => {
                gather_patch(input, b, cb, y0, x0, n, bufs.patch);
                TileSrc { d: bufs.patch, base: 0, row_stride: patch_stride }
            }
        };
        // SAFETY: the caller's contract.
        unsafe { E::lines_from_f32(self, src, bufs.transform, bufs.tile, lines) }
    }

    /// Phase ③ for output-channel group `kg` of `tile`: the output transform
    /// consuming the tile's raw `T×64` block `z`, the scheme's prologue
    /// fused into the column-pass loads and the post-op epilogue (bias /
    /// residual tile / ReLU) into the row-pass stores. Full tiles are stored
    /// straight into the output image (residual read in place); tiles
    /// clipped by the ragged edge go through the tile buffer and
    /// `scatter_output_tile`, their residual gathered into the patch buffer
    /// (clipped slots read zeros and are never scattered, so their epilogue
    /// results are discarded).
    ///
    /// # Safety
    ///
    /// No other thread may read or write output tile `(tile, kg)` during
    /// the call (output tiles never overlap; one task per tile suffices).
    unsafe fn output_tile(&self, tile: usize, kg: usize, z: &[E::Z], bufs: &mut TileBufs<'_>) {
        let m = self.geom.m;
        let (out, post) = (self.output, self.post);
        let (_, _, out_h, out_w) = out.dims();
        let (b, ty, tx) = tile_coords(&self.geom, tile);
        let (oy, ox) = (ty * m, tx * m);
        debug_assert!(kg < out.c_blocks() && z.len() == self.geom.t() * LANES);
        let bias = post.bias.map(|bb| &bb[kg * LANES..(kg + 1) * LANES]);
        E::Z::load_columns(self.tt, self.vt, z, self.inv, bufs.transform);
        if oy + m <= out_h && ox + m <= out_w {
            let base = out.offset(b, kg, oy, ox);
            let tape_post = TapePostOps {
                bias,
                residual: post.residual.map(|res| (res.data(), base, LANES)),
                relu: post.relu,
            };
            // SAFETY: the tile is full, so rows oy..oy+m hold m in-bounds
            // pixels each from column ox — m·64 contiguous values at row
            // pitch out_w·64, the last ending at or before the image's
            // end; this call is the tile's only writer (the caller's
            // contract). The residual has the output's dims, so the same
            // base and pitch address its tile.
            unsafe {
                debug_assert!(base + ((m - 1) * out_w + m) * LANES <= out.data().len());
                let (y, pitch) = (out.lanes_ptr_shared(b, kg, oy, ox), out_w * LANES);
                self.tt.output_rows_post_strided(self.vt, tape_post, pitch, y, pitch, bufs.transform);
            }
            return;
        }
        let y = &mut bufs.tile[..m * m * LANES];
        let residual = match post.residual {
            Some(res) => {
                let rt = &mut bufs.patch[..m * m * LANES];
                gather_patch(res, b, kg, oy as isize, ox as isize, m, rt);
                Some((&*rt, 0, LANES))
            }
            None => None,
        };
        let tape_post = TapePostOps { bias, residual, relu: post.relu };
        // SAFETY: `y` holds the m rows of m·64 values at pitch m·64 and is
        // exclusively borrowed; this call is the tile's only writer (the
        // caller's contract).
        unsafe {
            let (y_ptr, pitch) = (y.as_mut_ptr(), m * LANES);
            self.tt.output_rows_post_strided(self.vt, tape_post, pitch, y_ptr, pitch, bufs.transform);
            scatter_output_tile(out, b, kg, oy, ox, m, y);
        }
    }
}

/// The staged Winograd executor, in scheme `S`.
pub struct WinogradConv<S: Scheme> {
    pub(super) spec: ConvShape,
    pub(super) geom: TileGeometry,
    pub(super) tt: TileTransformer,
    pub(super) u_panel: <S::Elem as GemmElem>::U,
    /// The spatially-quantized input image, for the schemes whose tiles are
    /// cut from it (their jobs get the pre-pass phase that fills it).
    pub(super) spatial: Option<SpatialInt8>,
    /// ①'s quantization scale per tile position (quantizing schemes).
    pub(super) quant: Vec<f32>,
    /// ③'s de-quantization factors: per tile position, one for all, or none.
    pub(super) inv: Vec<f32>,
    /// The staged schedule's whole-layer `V`/`Z` panels, allocated by the
    /// first execute that needs them (a depth-first layer never does).
    pub(super) panels: Option<Panels<S::Elem>>,
    /// Saturated quantized values of the last execute, counted where they
    /// are produced.
    pub(super) saturated: AtomicU64,
    /// Stage ②'s blocking, in the units of [`GemmShape::as_u8i8`]: set at
    /// plan time (`set_blocking`, or the scheme's own), else resolved by the
    /// first execute and kept.
    pub(super) blocking: Option<Blocking>,
}

/// What every scheme's constructor starts with: the validated spec, its
/// tile geometry and the `F(m, r)` transformer.
pub(super) fn plan_tiles(
    spec: ConvShape,
    m: usize,
) -> Result<(ConvShape, TileGeometry, TileTransformer), ConvError> {
    let spec = spec.validate()?;
    let geom = spec.tiles(m)?;
    Ok((spec, geom, TileTransformer::new(m, spec.r)?))
}

impl<S: Scheme> WinogradConv<S> {
    pub(super) fn assemble(
        spec: ConvShape,
        geom: TileGeometry,
        tt: TileTransformer,
        u_panel: <S::Elem as GemmElem>::U,
        spatial: Option<SpatialInt8>,
        quant: Vec<f32>,
        inv: Vec<f32>,
    ) -> Self {
        Self {
            spec,
            geom,
            tt,
            u_panel,
            spatial,
            quant,
            inv,
            panels: None,
            saturated: AtomicU64::new(0),
            blocking: None,
        }
    }

    /// Set the GEMM blocking (the offline tuner, the blocking ablation
    /// bench, tests); the next execute runs with it.
    pub fn set_blocking(&mut self, b: Blocking) {
        self.blocking = Some(b);
    }

    /// The GEMM shape of stage ②, in channels.
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape { t: self.geom.t(), n: self.geom.total, c: self.spec.in_c, k: self.spec.out_c }
    }

    /// The staged schedule's `V` panel as the last staged execute left it;
    /// `None` before the first one, and for a LoWino layer whose every
    /// execute so far ran depth-first.
    pub fn v_panel(&self) -> Option<&<S::Elem as GemmElem>::V> {
        self.panels.as_ref().map(|(v, _)| v)
    }

    /// The spatially-quantized input of the last execute, halo and padding
    /// channels (all zero) included, where the scheme has one.
    pub fn quantized_input(&self) -> Option<&[i8]> {
        self.spatial.as_ref().map(|sp| sp.qbuf.as_slice())
    }

    /// Stage ②'s blocking for this execute, normalized to the shape.
    pub(super) fn resolved_blocking(&mut self, ctx: &ConvContext) -> Blocking {
        let words = self.gemm_shape().as_u8i8(S::Elem::ELEMENT);
        normalize_for(&resolve_blocking(&mut self.blocking, &words, ctx), &words)
    }

    /// The single-fork-join body of `execute` (`post` empty) and
    /// `execute_post`: validate, resolve the blocking, and run the element's
    /// schedule over the tile bodies.
    fn execute_impl(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        check_io(&self.spec, input, output, ctx.non_finite)?;
        if let Some(bias) = post.bias {
            assert!(
                bias.len() >= output.c_blocks() * LANES,
                "blocked bias too short for {} channel groups",
                output.c_blocks()
            );
        }
        if let Some(res) = post.residual {
            assert_eq!(res.dims(), output.dims(), "residual dims mismatch");
        }
        let shape = self.gemm_shape();
        let blocking = self.resolved_blocking(ctx);
        self.saturated.store(0, Ordering::Relaxed);
        let bodies = TileBodies {
            spec: self.spec,
            geom: self.geom,
            tt: &self.tt,
            spatial: self.spatial.as_ref(),
            quant: &self.quant,
            inv: &self.inv,
            input,
            output,
            post,
            spans: S::SPANS,
            saturated: &self.saturated,
            tier: ctx.tier,
            vt: VecTier::for_simd(ctx.tier),
            _elem: PhantomData,
        };
        S::Elem::run(&bodies, &self.u_panel, &mut self.panels, &shape, &blocking, ctx)
    }
}

/// The whole-layer `V`/`Z` panels of the staged schedule, allocated on
/// first use.
pub(super) fn staged_panels<'p, E: GemmElem>(
    panels: &'p mut Option<Panels<E>>,
    shape: &GemmShape,
) -> &'p mut Panels<E> {
    panels.get_or_insert_with(|| (E::v_panel(shape), ZPanelOf::new(shape.t, shape.n, shape.k)))
}

/// Flush one body's saturation tally: into the executor's count when this
/// is the scheme's health signal (what `saturation()` reports) and, under
/// tracing, the trace counters.
fn note_saturation(total: Option<&AtomicU64>, saturated: u64, values: usize) {
    if let Some(total) = total {
        total.fetch_add(saturated, Ordering::Relaxed);
    }
    if lowino_trace::enabled() {
        lowino_trace::counter("quant/saturated", saturated);
        lowino_trace::counter("quant/values", values as u64);
    }
}

/// The staged schedule (paper §4.4): the phases of one pool job, separated
/// by in-pool barriers, handing the whole-layer `V` and `Z` panels from one
/// to the next. A scheme whose tiles come from the INT8 image gets the
/// pre-pass that fills it as one more phase in front.
fn run_staged<E: GemmElem>(
    bodies: &TileBodies<'_, E>,
    u: &E::U,
    panels: &mut Option<Panels<E>>,
    shape: &GemmShape,
    blocking: &Blocking,
    ctx: &mut ConvContext,
) -> Result<StageTimings, ExecError> {
    let (v_panel, z_panel) = staged_panels::<E>(panels, shape);
    let vp: &E::V = v_panel;
    // The plan's exclusive borrow of `Z` lives through the whole fork-join
    // (phase ③ reads it via `z()`).
    let gemm = E::plan(bodies.tier, shape, blocking, vp, u, z_panel);
    let (spec, geom, spans, saturated) = (&bodies.spec, bodies.geom, bodies.spans, bodies.saturated);
    let (c_blocks, k_blocks) = (bodies.input.c_blocks(), bodies.output.c_blocks());
    // Split the context so the pool (`&mut`) and the shared arena can be
    // used simultaneously.
    let ConvContext { pool, scratch, .. } = ctx;
    let scratch: &ScratchArena = scratch;
    let totals = [spec.batch * spec.h, c_blocks * geom.total, gemm.total(), k_blocks * geom.total];
    let skip = usize::from(bodies.spatial.is_none());
    let body = |worker: usize, phase: usize, range: Range<usize>| match (phase + skip, bodies.spatial) {
        // -- Pre-pass: quantize the input image ONCE into the padded INT8
        // buffer (❶ of Fig. 2) — overlapping tiles then re-read cheap INT8
        // bytes.
        (0, Some(spatial)) => {
            let _span = lowino_trace::span(spans[0]);
            let values = range.len() * spec.w * c_blocks * LANES;
            // SAFETY: each (b, y) row is one task of this phase, and nothing
            // reads the buffer before the phase barrier.
            let sat = unsafe { spatial.quantize_rows(spec, bodies.input, range) };
            note_saturation((!E::QUANTIZED_V).then_some(saturated), sat, values);
        }
        // -- Phase ①: every finished V line goes into the V panel.
        (0 | 1, _) => {
            let _span = lowino_trace::span(spans[1]);
            let mut ws = scratch.worker(worker);
            let (mut bufs, ..) = bodies.bufs(&mut ws);
            let values = range.len() * geom.t() * LANES;
            let mut sat = 0u64;
            for task in range {
                let (cb, tile) = (task / geom.total, task % geom.total);
                // SAFETY: `task < c_blocks · N`, so (tile, cb) is inside the
                // panel; each (t, tile, cb) line is written by exactly one
                // task of this phase, and nothing reads V before the phase
                // barrier.
                sat += unsafe { bodies.input_tile(tile, cb, &mut bufs, E::v_lines(vp, tile, cb)) };
            }
            if E::QUANTIZED_V {
                note_saturation(Some(saturated), sat, values);
            }
            // Drain the non-temporal stores before the phase barrier — the
            // GEMM phase reads V from other threads.
            stream_fence();
        }
        // -- Phase ②: the batched GEMM, pipelined through the worker's
        // double-buffered packing scratch.
        (2, _) => {
            let _span = lowino_trace::span(spans[2]);
            let mut ws = scratch.worker(worker);
            gemm.run_range(range, &mut ws.gemm_pack);
        }
        // -- Phase ③: each tile's T×64 block read contiguously from Z.
        _ => {
            let _span = lowino_trace::span(spans[3]);
            let mut ws = scratch.worker(worker);
            let (mut bufs, ..) = bodies.bufs(&mut ws);
            for task in range {
                let (kg, tile) = (task / geom.total, task % geom.total);
                debug_assert!(kg < k_blocks);
                // SAFETY: `task < k_blocks · N`, so (kg, tile) is this
                // task's alone.
                unsafe { bodies.output_tile(tile, kg, gemm.z().tile_block(kg, tile), &mut bufs) };
            }
        }
    };
    let times = pool.run_phases_catching(&totals[skip..], body)?;
    let (before_gemm, rest) = times.as_slice().split_at(times.len() - 2);
    Ok(StageTimings {
        input_transform: before_gemm.iter().sum(),
        gemm: rest[0],
        output_transform: rest[1],
    })
}

/// Largest tile block of the depth-first schedule: past this the blocks
/// only grow the working set (18 and 42 read within 2 % of each other).
const MAX_CHAIN_BLOCK: usize = 96;

/// The depth-first schedule's tile-block size for a layer, or `None` when
/// the layer keeps the staged schedule.
///
/// A pure function of what the executor can see. A worker's working set is
/// the shared `U` panel plus its own blocks — per tile `T·C_p` bytes of `V`
/// and `T·K_p` i32 of `Z` — and must fit **¾ of one core's L2**: past the
/// L2 a quarter of the gain is gone, and a `U` that does not fit on its own
/// would be re-streamed from memory for every block (EXPERIMENTS.md
/// "PR 13"). Within that budget the block is cut so every thread gets
/// about four of them (stealing evens out the rest), capped at
/// [`MAX_CHAIN_BLOCK`], rounded down to whole `row_blk` register tiles and
/// never below two of them — a layer too small to fill those simply runs
/// as fewer, short blocks.
pub fn chain_block(
    shape: &GemmShape,
    row_blk: usize,
    threads: usize,
    l2_bytes: usize,
) -> Option<usize> {
    let (cp, kp) = (round_up(shape.c, LANES), round_up(shape.k, LANES));
    let budget = l2_bytes / 4 * 3;
    let u_bytes = shape.t * cp * kp;
    let fit = budget.checked_sub(u_bytes)? / (shape.t * (cp + 4 * kp));
    let per_thread = shape.n.div_ceil(4 * threads.max(1)).max(2 * row_blk);
    let nb = fit.min(per_thread).min(MAX_CHAIN_BLOCK) / row_blk * row_blk;
    (nb >= 2 * row_blk).then_some(nb)
}

/// The depth-first schedule: one pool phase whose tasks are blocks of `nb`
/// consecutive tiles. A task transforms its tiles for all `C` into the
/// worker's own `V` block, multiplies the block against the shared `U`
/// into the worker's `Z` block, and inverse-transforms straight out of
/// that into the output image — ordinary stores, no barrier, no fence, no
/// memory round trip between the three.
///
/// Without barriers there is no per-phase wall time to read off the pool:
/// each worker clocks its own three stages inside every task, and
/// [`StageTimings`] reports the mean over the pool's workers — the Fig. 10
/// split of the layer's CPU time, whose sum is at most the wall time. A
/// stage of one block lasts microseconds, so the trace gets one
/// `lowino/chain` span per task range and the same split as three
/// `lowino/*_ns` counters, not three spans per block.
fn run_chained(
    bodies: &TileBodies<'_, U8I8>,
    gemm: &BlockGemm<'_>,
    nb: usize,
    ctx: &mut ConvContext,
) -> Result<StageTimings, ExecError> {
    let geom = bodies.geom;
    let t_count = geom.t();
    let (c_blocks, k_blocks) = (bodies.input.c_blocks(), bodies.output.c_blocks());
    let cp = c_blocks * LANES;
    let ConvContext { pool, scratch, .. } = ctx;
    let scratch: &ScratchArena = scratch;
    let stage_ns = [const { AtomicU64::new(0) }; 3];
    let workers = pool.threads() as u64;
    pool.run_phases_catching(&[geom.total.div_ceil(nb)], |worker, _, range| {
        let _span = lowino_trace::span("lowino/chain");
        let mut ws = scratch.worker(worker);
        let (mut bufs, v_block, z_block) = bodies.bufs(&mut ws);
        let v = ensure_u8(v_block, gemm.v_len(nb));
        let z = ensure_i32(z_block, gemm.z_len(nb));
        debug_assert_eq!(gemm.v_len(nb), t_count * nb * cp);
        let mut ns = [0u64; 3];
        let (mut sat, mut tiles) = (0u64, 0usize);
        let (mut panel_bytes, mut macs) = (0u64, 0u64);
        for block in range {
            let tile0 = block * nb;
            let rows = nb.min(geom.total - tile0);
            let t0 = Instant::now();
            for cb in 0..c_blocks {
                for i in 0..rows {
                    // SAFETY: line `t` of tile `i < nb`, group `cb`, is bytes
                    // `(t·nb + i)·C_p + cb·64 ..+ 64` of the V block —
                    // inside its `T·nb·C_p` bytes, 64-byte aligned like the
                    // buffer, written once per block — and the block is
                    // this worker's alone.
                    sat += unsafe {
                        debug_assert!(((t_count - 1) * nb + i) * cp + (cb + 1) * LANES <= v.len());
                        let lines = VLines {
                            base: v.as_mut_ptr().add(i * cp + cb * LANES),
                            t_stride: nb * cp,
                            stream: false,
                        };
                        bodies.input_tile(tile0 + i, cb, &mut bufs, lines)
                    };
                }
            }
            let t1 = Instant::now();
            gemm.run(nb, rows, v, z);
            let t2 = Instant::now();
            for kg in 0..k_blocks {
                for i in 0..rows {
                    let at = (kg * nb + i) * t_count * LANES;
                    // SAFETY: tile blocks partition `0..N`, so output tile
                    // `tile0 + i` belongs to this task alone.
                    unsafe { bodies.output_tile(tile0 + i, kg, &z[at..at + t_count * LANES], &mut bufs) };
                }
            }
            let t3 = Instant::now();
            for (acc, d) in ns.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                *acc += d.as_nanos() as u64;
            }
            tiles += rows;
            let (bytes, block_macs) = gemm.traffic(rows);
            panel_bytes += bytes;
            macs += block_macs;
        }
        for (total, ns) in stage_ns.iter().zip(ns) {
            total.fetch_add(ns, Ordering::Relaxed);
        }
        note_saturation(Some(bodies.saturated), sat, tiles * c_blocks * t_count * LANES);
        if lowino_trace::enabled() {
            lowino_trace::counter("gemm/panel_bytes", panel_bytes);
            lowino_trace::counter("gemm/dpbusd_macs", macs);
            lowino_trace::counter("lowino/input_transform_ns", ns[0]);
            lowino_trace::counter("lowino/gemm_ns", ns[1]);
            lowino_trace::counter("lowino/output_transform_ns", ns[2]);
        }
    })?;
    let mean = |stage: &AtomicU64| Duration::from_nanos(stage.load(Ordering::Relaxed) / workers);
    Ok(StageTimings {
        input_transform: mean(&stage_ns[0]),
        gemm: mean(&stage_ns[1]),
        output_transform: mean(&stage_ns[2]),
    })
}

impl<S: Scheme> ConvExecutor for WinogradConv<S> {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        S::algorithm(self.geom.m)
    }

    /// One pool job per layer (paper §4.4), with working buffers drawn from
    /// the context's persistent per-worker [`ScratchArena`]. Transforms run
    /// on the **generated codelet kernels** with the scheme's epilogue and
    /// prologue fused, in place wherever the tile geometry allows. Per-lane
    /// arithmetic is identical in both schedules and to the interpreted,
    /// gather-everything `LoWinoConv::execute_three_fork_join`, so outputs
    /// are bitwise identical (`tests/winograd_schemes.rs`,
    /// `tests/lowino_chained.rs` and `tests/lowino_in_place.rs` are the
    /// end-to-end checks).
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        self.execute_impl(input, output, &ConvPostOps::default(), ctx)
    }

    /// Fused override of the default execute-then-apply path: the post-ops
    /// ride the phase-③ row pass, so the activations are touched exactly
    /// once. Bitwise identical to the default implementation
    /// ([`crate::algo::apply_post_ops`]) because `((y + bias) + res).max(0.0)`
    /// is evaluated in the same order with the same IEEE ops.
    fn execute_post(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        self.execute_impl(input, output, post, ctx)
    }

    /// Saturation of the last execute's quantized values, counted as they
    /// were produced: the `V` lines of a scheme that quantizes in ① (of the
    /// real `T·N·C` values — padding channels quantize to the compensated
    /// zero, which the counter ignores), else the INT8 image of the
    /// pre-pass (of the real `B·C·H·W` values); `None` without a quantizer.
    fn saturation(&self) -> Option<(u64, u64)> {
        let (spec, geom) = (&self.spec, &self.geom);
        let total = if S::Elem::QUANTIZED_V {
            geom.t() * geom.total * spec.in_c
        } else {
            self.spatial.as_ref()?;
            spec.batch * spec.in_c * spec.h * spec.w
        };
        Some((self.saturated.load(Ordering::Relaxed), total as u64))
    }

    /// The u8×i8 problem stage ②'s words amount to — what the tuner seeds a
    /// blocking for.
    fn gemm_shape(&self) -> Option<GemmShape> {
        // Qualified call: the inherent method shadows the trait's.
        S::SEEDED.then(|| WinogradConv::gemm_shape(self).as_u8i8(S::Elem::ELEMENT))
    }

    fn set_blocking(&mut self, b: Blocking) {
        if S::SEEDED {
            self.blocking = Some(b);
        }
    }
}
