//! **LoWino** — low-precision Winograd convolution with Winograd-domain
//! post-training quantization (the paper's contribution, §3–4).
//!
//! Pipeline (Fig. 3):
//!
//! 1. **Input transformation ①** — read each `n×n×64` tile of the blocked
//!    image (in place when it lies inside the image, gathered with its
//!    zero halo otherwise), transform in FP32 (`V = Bᵀ d B`), quantize *in
//!    the Winograd domain* with the calibrated `α_V` (Eq. 4), add the +128
//!    compensation, and write each 64-channel group of `V` as one cache
//!    line;
//! 2. **Batched GEMM ②** — `T` tall-and-skinny `u8×i8→i32` products with
//!    compensation seeding (§4.3);
//! 3. **Output transformation ③** — read each tile's `T×64` block
//!    contiguously from `Z`, de-quantize by `1/(α_V·α_U)` (Eq. 6),
//!    inverse-transform (`y = Aᵀ Z A`) and store into the blocked output
//!    (full tiles directly, ragged-edge tiles through a clipping scatter).
//!
//! Two schedules run that pipeline, chosen per layer by [`chain_block`]
//! from the shapes and the host's cache — never by a switch:
//!
//! * **staged** (the paper's, §4.2.1/§4.3.2): three pool phases separated
//!   by barriers; `V` and `Z` are whole-layer panels scattered with
//!   non-temporal stores. For layers whose `U` cannot stay in L2, where the
//!   tuned `N_blk`/`K_blk` walk is what keeps the GEMM at its roof.
//! * **depth-first**: one pool phase over blocks of `nb` consecutive
//!   tiles; a worker takes a block through ① → ② → ③ in its own `V`/`Z`
//!   blocks, which together with the shared `U` sit in that core's L2, so
//!   the Winograd domain never round-trips through memory.
//!
//! The per-tile bodies of ① and ③ are the same code in both
//! ([`TileBodies`]); only where a `V` line or a `Z` block lives differs.
//!
//! Unlike the down-scaling baseline, the FP32 input is loaded directly (4×
//! the bytes of an INT8 load — the §5.3 transformation-time trade-off) and
//! no precision is lost to transform-domain rescaling; unlike the
//! up-casting baseline, the multiply stage runs at full `vpdpbusd`
//! throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lowino_gemm::{
    batched_gemm_u8i8, normalize_for, BlockGemm, Blocking, GemmShape, GemmTasks, UPanel, VPanel,
    ZPanel,
};
use lowino_quant::{count_saturated_u8, QParams};
use lowino_simd::vecf32::VecTier;
use lowino_simd::{quantize_f32_lanes_i8, store::stream_fence, stream_store_u8_64, SimdTier};
use lowino_tensor::{round_up, BlockedImage, ConvShape, Tensor4, TileGeometry, LANES};
use lowino_winograd::{TapePostOps, TileTransformer, TransformScratch};

use crate::algo::{check_io, resolve_blocking, Algorithm, ConvExecutor, ConvPostOps};
use crate::context::{ConvContext, NonFinitePolicy};
use crate::error::{ConvError, ExecError};
use crate::filter::{pack_filters_lowino, pack_filters_lowino_per_position};
use crate::scratch::{ensure_f32, ensure_i32, ensure_u8, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;
use crate::tiles::{gather_patch, scatter_output_tile, tile_coords, tile_origin};

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

/// Where phase ① puts the `T` quantized `V` lines of one `(tile, channel
/// group)`: line `t` is the 64 bytes at `base + t·t_stride`.
#[derive(Clone, Copy)]
struct VLines {
    base: *mut u8,
    t_stride: usize,
    /// Non-temporal stores (the staged panel, read after a barrier by other
    /// threads) or ordinary ones (the worker's own cache-resident block).
    stream: bool,
}

/// The per-tile bodies of phases ① and ③ — everything a tile needs except
/// where its Winograd-domain data lives, which each schedule passes in.
struct TileBodies<'a> {
    spec: ConvShape,
    geom: TileGeometry,
    tt: &'a TileTransformer,
    alpha_v: &'a [f32],
    inv_alpha: &'a [f32],
    input: &'a BlockedImage,
    output: &'a BlockedImage,
    post: &'a ConvPostOps<'a>,
    tier: SimdTier,
    vt: VecTier,
}

impl TileBodies<'_> {
    /// Phase ① for channel group `cb` of `tile`: input transform with the
    /// quantize epilogue fused into the row pass, every finished 64-channel
    /// `V` line written straight to `lines` (the f32 `V` tile is never
    /// materialized). Interior tiles are transformed in place off the
    /// blocked image; tiles that overlap the zero-padding halo go through
    /// `gather_patch`. Returns how many of the tile's values saturated,
    /// counted while each line is still hot.
    ///
    /// # Safety
    ///
    /// For every `t < T`, `lines.base + t·lines.t_stride` must be 64-byte
    /// aligned and valid for a 64-byte write that no other thread reads or
    /// writes during the call.
    unsafe fn input_tile(
        &self,
        tile: usize,
        cb: usize,
        transform: &mut TransformScratch,
        patch: &mut [f32],
        lines: VLines,
    ) -> u64 {
        let n = self.geom.n;
        let input = self.input;
        let (_, _, in_h, in_w) = input.dims();
        let (b, ty, tx) = tile_coords(&self.geom, tile);
        let (y0, x0) = tile_origin(&self.spec, &self.geom, ty, tx);
        let interior =
            y0 >= 0 && x0 >= 0 && y0 as usize + n <= in_h && x0 as usize + n <= in_w;
        let (d, d_base, d_row_stride) = if interior {
            // Rows y0..y0+n and columns x0..x0+n are inside the image, so
            // all n×n lane groups are in bounds (safe slice reads; the tape
            // re-checks the span).
            let base = input.offset(b, cb, y0 as usize, x0 as usize);
            debug_assert!(base + ((n - 1) * in_w + n) * LANES <= input.data().len());
            (input.data(), base, in_w * LANES)
        } else {
            gather_patch(input, b, cb, y0, x0, n, patch);
            (&*patch, 0, n * LANES)
        };
        let mut saturated = 0u64;
        let sink = |t: usize, line: &[u8]| {
            let line: &[u8; LANES] = line.try_into().expect("one V line per sink call");
            debug_assert!(t < self.geom.t());
            // SAFETY: the caller's contract — line `t < T` is 64 aligned
            // bytes at `base + t·t_stride` that only this call touches.
            let dst = unsafe {
                let dst = lines.base.add(t * lines.t_stride);
                debug_assert!(dst.addr().is_multiple_of(LANES));
                core::slice::from_raw_parts_mut(dst, LANES)
            };
            saturated += count_saturated_u8(line);
            if lines.stream {
                stream_store_u8_64(self.tier, dst, line);
            } else {
                dst.copy_from_slice(line);
            }
        };
        self.tt.input_tile_quantized_with(
            self.vt,
            d,
            d_base,
            d_row_stride,
            self.alpha_v,
            true,
            transform,
            sink,
        );
        saturated
    }

    /// Phase ③ for output-channel group `kg` of `tile`: output transform
    /// consuming the tile's raw `T×64` i32 block `z`, dequantization fused
    /// into the column-pass loads and the post-op epilogue (bias / residual
    /// tile / ReLU) fused into the row-pass stores. Full tiles are stored
    /// straight into the output image (residual read in place); tiles
    /// clipped by the ragged edge go through the tile buffer `y` and
    /// `scatter_output_tile`, their residual gathered into `res_tile`
    /// (clipped slots read zeros and are never scattered, so their
    /// epilogue results are discarded).
    ///
    /// # Safety
    ///
    /// No other thread may read or write output tile `(tile, kg)` during
    /// the call (output tiles never overlap; one task per tile suffices).
    unsafe fn output_tile(
        &self,
        tile: usize,
        kg: usize,
        z: &[i32],
        transform: &mut TransformScratch,
        y: &mut [f32],
        res_tile: Option<&mut [f32]>,
    ) {
        let m = self.geom.m;
        let (out, post) = (self.output, self.post);
        let (_, _, out_h, out_w) = out.dims();
        let (b, ty, tx) = tile_coords(&self.geom, tile);
        let (oy, ox) = (ty * m, tx * m);
        debug_assert!(kg < out.c_blocks() && z.len() == self.geom.t() * LANES);
        let bias = post.bias.map(|bb| &bb[kg * LANES..(kg + 1) * LANES]);
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
                self.tt.output_tile_dequantized_post_strided(
                    self.vt,
                    z,
                    self.inv_alpha,
                    1,
                    tape_post,
                    out_w * LANES,
                    out.lanes_ptr_shared(b, kg, oy, ox),
                    out_w * LANES,
                    transform,
                );
            }
            return;
        }
        let res_tile = match (post.residual, res_tile) {
            (Some(res), Some(rt)) => {
                gather_patch(res, b, kg, oy as isize, ox as isize, m, rt);
                Some(&*rt)
            }
            _ => None,
        };
        let tape_post = TapePostOps {
            bias,
            residual: res_tile.map(|rt| (rt, 0, LANES)),
            relu: post.relu,
        };
        self.tt
            .output_tile_dequantized_post(self.vt, z, self.inv_alpha, 1, tape_post, y, transform);
        // SAFETY: the caller's contract — this call is the tile's only writer.
        unsafe {
            scatter_output_tile(out, b, kg, oy, ox, m, y);
        }
    }
}

/// The LoWino executor.
pub struct LoWinoConv {
    spec: ConvShape,
    geom: TileGeometry,
    tt: TileTransformer,
    u_panel: UPanel,
    /// Input scale per tile position (a per-tensor scale is broadcast).
    alpha_v: Vec<f32>,
    /// Filter scale per tile position.
    alpha_u: Vec<f32>,
    /// De-quantization factors `1/(α_V[t]·α_U[t])`.
    inv_alpha: Vec<f32>,
    per_position: bool,
    /// The staged schedule's whole-layer `V`/`Z` panels, allocated by the
    /// first execute that needs them (a depth-first layer never does).
    panels: Option<(VPanel, ZPanel)>,
    /// Saturated `V` values of the last execute, counted in phase ①.
    saturated: AtomicU64,
    /// Stage ②'s blocking: set by [`Self::set_blocking`], else resolved by
    /// the first execute ([`resolve_blocking`]) and kept.
    blocking: Option<Blocking>,
}

impl LoWinoConv {
    /// Plan a LoWino convolution for `F(m×m, r×r)`.
    ///
    /// `input_scale` is the Winograd-domain activation scale from
    /// [`crate::calibrate_winograd_domain`] (or any externally chosen
    /// `α_V`). Filters are transformed, quantized and interleaved here —
    /// offline, exactly once.
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let geom = spec.tiles(m)?;
        let tt = TileTransformer::new(m, spec.r)?;
        let (u_panel, alpha_u) = pack_filters_lowino(&spec, &geom, &tt, weights)?;
        let t_count = geom.t();
        Ok(Self::assemble(
            spec,
            geom,
            tt,
            u_panel,
            vec![input_scale.alpha; t_count],
            vec![alpha_u.alpha; t_count],
            false,
        ))
    }

    /// Plan with **per-tile-position** scales (the scale-granularity
    /// extension; required for `m = 6`). `input_scales` comes from
    /// [`crate::calibrate::calibrate_winograd_domain_per_position`] and
    /// must have exactly `(m+r−1)²` entries.
    pub fn new_per_position(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scales: &[QParams],
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let geom = spec.tiles(m)?;
        let t_count = geom.t();
        if input_scales.len() != t_count {
            return Err(ConvError::Calibration(format!(
                "expected {t_count} per-position scales, got {}",
                input_scales.len()
            )));
        }
        let tt = TileTransformer::new(m, spec.r)?;
        let (u_panel, alpha_u) = pack_filters_lowino_per_position(&spec, &geom, &tt, weights)?;
        Ok(Self::assemble(
            spec,
            geom,
            tt,
            u_panel,
            input_scales.iter().map(|q| q.alpha).collect(),
            alpha_u.iter().map(|q| q.alpha).collect(),
            true,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        spec: ConvShape,
        geom: TileGeometry,
        tt: TileTransformer,
        u_panel: UPanel,
        alpha_v: Vec<f32>,
        alpha_u: Vec<f32>,
        per_position: bool,
    ) -> Self {
        let t_count = geom.t();
        let inv_alpha = (0..t_count)
            .map(|t| 1.0 / (alpha_v[t] * alpha_u[t]))
            .collect();
        Self {
            spec,
            geom,
            tt,
            u_panel,
            alpha_v,
            alpha_u,
            inv_alpha,
            per_position,
            panels: None,
            saturated: AtomicU64::new(0),
            blocking: None,
        }
    }

    /// Whether per-tile-position scales are in use.
    pub fn is_per_position(&self) -> bool {
        self.per_position
    }

    /// Set the GEMM blocking (planners seeding from
    /// [`ConvContext::seed_blocking`], the offline tuner and the blocking
    /// ablation bench); the next execute runs with it.
    pub fn set_blocking(&mut self, b: Blocking) {
        self.blocking = Some(b);
    }

    /// The GEMM shape of stage ② (for tuning).
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape {
            t: self.geom.t(),
            n: self.geom.total,
            c: self.spec.in_c,
            k: self.spec.out_c,
        }
    }

    /// The Winograd-domain scales `(α_V[t], α_U[t])` — constant vectors
    /// when planned per-tensor.
    pub fn scales(&self) -> (&[f32], &[f32]) {
        (&self.alpha_v, &self.alpha_u)
    }

    /// Tile geometry.
    pub fn geometry(&self) -> &TileGeometry {
        &self.geom
    }

    /// The staged schedule's `V` panel as the last staged (or
    /// three-fork-join) execute left it; `None` while every execute so far
    /// ran depth-first, which never allocates the whole-layer panels.
    pub fn v_panel(&self) -> Option<&VPanel> {
        self.panels.as_ref().map(|(v, _)| v)
    }

    /// The pre-PR-2 execution schedule: three separate pool fork-joins
    /// (one per stage) with per-call scratch allocations inside the stage
    /// closures, every tile gathered and scattered, on the interpreted
    /// codelets. Kept verbatim as the reference point for the fork-join
    /// benchmark and the equivalence tests; [`ConvExecutor::execute`] is
    /// the production single-fork-join path.
    pub fn execute_three_fork_join(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> StageTimings {
        check_io(&self.spec, input, output, NonFinitePolicy::Propagate)
            .expect("io mismatch on the legacy reference path");
        let mut timings = StageTimings::default();
        let spec = self.spec;
        let geom = self.geom;
        let (n, m, t_count) = (geom.n, geom.m, geom.t());
        let shape = self.gemm_shape();
        let blocking = resolve_blocking(&mut self.blocking, &shape, ctx);
        let (v_panel, z_panel) = staged_panels(&mut self.panels, &shape);
        let tt = &self.tt;
        let tier = ctx.tier;
        let alpha_v: &[f32] = &self.alpha_v;
        let saturated = &self.saturated;
        saturated.store(0, Ordering::Relaxed);

        // -- Stage ①: input transformation + Winograd-domain quantization.
        let start = Instant::now();
        let vp: &VPanel = v_panel;
        let c_blocks = input.c_blocks();
        let tasks = c_blocks * geom.total;
        ctx.pool.run(tasks, |_, range| {
            let mut scratch = tt.make_scratch(LANES);
            let mut patch = vec![0f32; n * n * LANES];
            let mut v = vec![0f32; n * n * LANES];
            let mut q = [0u8; LANES];
            let mut sat = 0u64;
            for task in range {
                let cb = task / geom.total;
                let tile = task % geom.total;
                let (b, ty, tx) = tile_coords(&geom, tile);
                let (y0, x0) = tile_origin(&spec, &geom, ty, tx);
                gather_patch(input, b, cb, y0, x0, n, &mut patch);
                tt.input_tile_f32(&patch, &mut v, &mut scratch);
                for t in 0..t_count {
                    quantize_f32_lanes_i8(&v[t * LANES..(t + 1) * LANES], alpha_v[t], true, &mut q);
                    sat += count_saturated_u8(&q);
                    // SAFETY: each (t, tile, cb) cache line is written by
                    // exactly one task; rows are 64-byte aligned.
                    unsafe {
                        let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                        let dst = core::slice::from_raw_parts_mut(dst, LANES);
                        stream_store_u8_64(tier, dst, &q);
                    }
                }
            }
            saturated.fetch_add(sat, Ordering::Relaxed);
            stream_fence();
        });
        timings.input_transform = start.elapsed();

        // -- Stage ②: batched low-precision GEMM.
        let start = Instant::now();
        batched_gemm_u8i8(
            tier,
            &shape,
            &blocking,
            v_panel,
            &self.u_panel,
            z_panel,
            &mut ctx.pool,
        );
        timings.gemm = start.elapsed();

        // -- Stage ③: de-quantize + output transformation.
        let start = Instant::now();
        let inv_alpha: &[f32] = &self.inv_alpha;
        let zp: &ZPanel = z_panel;
        let out_ref: &BlockedImage = output;
        let k_blocks = output.c_blocks();
        let tasks = k_blocks * geom.total;
        ctx.pool.run(tasks, |_, range| {
            let mut scratch = tt.make_scratch(LANES);
            let mut zf = vec![0f32; t_count * LANES];
            let mut y = vec![0f32; m * m * LANES];
            for task in range {
                let kg = task / geom.total;
                let tile = task % geom.total;
                let (b, ty, tx) = tile_coords(&geom, tile);
                let block = zp.tile_block(kg, tile);
                for t in 0..t_count {
                    lowino_simd::dequantize_i32_lanes(
                        &block[t * LANES..(t + 1) * LANES],
                        inv_alpha[t],
                        &mut zf[t * LANES..(t + 1) * LANES],
                    );
                }
                tt.output_tile_f32(&zf, &mut y, &mut scratch);
                // SAFETY: output tiles never overlap; one task per tile.
                unsafe {
                    scatter_output_tile(out_ref, b, kg, ty * m, tx * m, m, &y);
                }
            }
        });
        timings.output_transform = start.elapsed();
        timings
    }

    /// The single-fork-join body shared by [`ConvExecutor::execute`]
    /// (`post` empty) and [`ConvExecutor::execute_post`]: picks the
    /// schedule ([`chain_block`]) and runs it. Phase ③ threads the
    /// per-destination post-ops into the output-transform tape's row pass,
    /// so bias/residual/ReLU happen in-register between the inverse
    /// transform and the one store of each output element.
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
        // Stage ②'s blocking and, from its register tile and the host's L2,
        // the schedule.
        let shape = self.gemm_shape();
        let blocking = normalize_for(&resolve_blocking(&mut self.blocking, &shape, ctx), &shape);
        let chain = chain_block(&shape, blocking.row_blk, ctx.threads(), ctx.cache.l2_bytes);
        self.saturated.store(0, Ordering::Relaxed);
        let bodies = TileBodies {
            spec: self.spec,
            geom: self.geom,
            tt: &self.tt,
            alpha_v: &self.alpha_v,
            inv_alpha: &self.inv_alpha,
            input,
            output,
            post,
            tier: ctx.tier,
            vt: VecTier::for_simd(ctx.tier),
        };
        match chain {
            Some(nb) => {
                let gemm = BlockGemm::plan(ctx.tier, &shape, &blocking, &self.u_panel);
                run_chained(&bodies, &gemm, nb, &self.saturated, ctx)
            }
            None => {
                let (v_panel, z_panel) = staged_panels(&mut self.panels, &shape);
                // The plan's exclusive borrow of `Z` lives through the whole
                // fork-join (phase ③ reads it via `z()`).
                let gemm = GemmTasks::plan(
                    ctx.tier,
                    &shape,
                    &blocking,
                    v_panel,
                    &self.u_panel,
                    z_panel,
                );
                run_staged(&bodies, &gemm, v_panel, &self.saturated, ctx)
            }
        }
    }
}

/// The whole-layer `V`/`Z` panels of the staged schedule, allocated on
/// first use.
fn staged_panels<'p>(
    panels: &'p mut Option<(VPanel, ZPanel)>,
    shape: &GemmShape,
) -> &'p mut (VPanel, ZPanel) {
    panels.get_or_insert_with(|| {
        (
            VPanel::new(shape.t, shape.n, shape.c),
            ZPanel::new(shape.t, shape.n, shape.k),
        )
    })
}

/// Flush one phase-① body's saturation tally: into the executor's count
/// (what `saturation()` reports) and, under tracing, the trace counters.
fn note_saturation(total: &AtomicU64, saturated: u64, values: usize) {
    total.fetch_add(saturated, Ordering::Relaxed);
    if lowino_trace::enabled() {
        lowino_trace::counter("quant/saturated", saturated);
        lowino_trace::counter("quant/values", values as u64);
    }
}

/// The staged schedule (paper §4.4): three phases of one pool job,
/// separated by in-pool barriers, handing the whole-layer `V` and `Z`
/// panels from one to the next with non-temporal stores.
fn run_staged(
    bodies: &TileBodies<'_>,
    gemm: &GemmTasks<'_>,
    vp: &VPanel,
    saturated: &AtomicU64,
    ctx: &mut ConvContext,
) -> Result<StageTimings, ExecError> {
    let (tt, geom) = (bodies.tt, bodies.geom);
    let (n, m, t_count) = (geom.n, geom.m, geom.t());
    let (c_blocks, k_blocks) = (bodies.input.c_blocks(), bodies.output.c_blocks());
    let has_residual = bodies.post.residual.is_some();
    // Split the context so the pool (`&mut`) and the shared arena can be
    // used simultaneously.
    let ConvContext { pool, scratch, .. } = ctx;
    let scratch: &ScratchArena = scratch;
    let totals = [c_blocks * geom.total, gemm.total(), k_blocks * geom.total];
    let times = pool.run_phases_catching(&totals, |worker, phase, range| match phase {
        // -- Phase ①: every finished V line is stream-stored as one cache
        // line into the V panel.
        0 => {
            let _span = lowino_trace::span("lowino/input_transform");
            let mut ws = scratch.worker(worker);
            let WorkerScratch {
                transform, patch_f, ..
            } = &mut *ws;
            tt.ensure_scratch(transform, LANES);
            let patch = ensure_f32(patch_f, n * n * LANES);
            let values = range.len() * t_count * LANES;
            let mut sat = 0u64;
            for task in range {
                let cb = task / geom.total;
                let tile = task % geom.total;
                // SAFETY: `tile < N` (as `task < c_blocks · N`), so rows
                // `(t, tile)`, `t < T`, are rows of the V panel, `N·C_p`
                // bytes apart and 64-byte aligned, and `cb·64 + 64 ≤ C_p`
                // keeps the line inside each; each (t, tile, cb) line is
                // written by exactly one task of this phase, and nothing
                // reads V before the phase barrier.
                sat += unsafe {
                    debug_assert!(cb < c_blocks && (cb + 1) * LANES <= vp.cp());
                    let lines = VLines {
                        base: vp.row_ptr_shared(0, tile).add(cb * LANES),
                        t_stride: geom.total * vp.cp(),
                        stream: true,
                    };
                    bodies.input_tile(tile, cb, transform, patch, lines)
                };
            }
            note_saturation(saturated, sat, values);
            // Drain the non-temporal stores before the phase barrier — the
            // GEMM phase reads V from other threads.
            stream_fence();
        }
        // -- Phase ②: batched low-precision GEMM, pipelined through the
        // worker's double-buffered packing scratch.
        1 => {
            let _span = lowino_trace::span("lowino/gemm");
            let mut ws = scratch.worker(worker);
            gemm.run_range(range, &mut ws.gemm_pack);
        }
        // -- Phase ③: each tile's T×64 block read contiguously from Z.
        _ => {
            let _span = lowino_trace::span("lowino/output_transform");
            let mut ws = scratch.worker(worker);
            let WorkerScratch {
                transform,
                tile_f,
                patch_f,
                ..
            } = &mut *ws;
            tt.ensure_scratch(transform, LANES);
            let y = ensure_f32(tile_f, m * m * LANES);
            // `patch_f` is free in phase ③ — it becomes the gathered
            // residual tile.
            let mut res_tile = has_residual.then(|| ensure_f32(patch_f, m * m * LANES));
            for task in range {
                let kg = task / geom.total;
                let tile = task % geom.total;
                debug_assert!(kg < k_blocks);
                let block = gemm.z().tile_block(kg, tile);
                // SAFETY: `task < k_blocks · N`, so (kg, tile) is this
                // task's alone.
                unsafe {
                    bodies.output_tile(tile, kg, block, transform, y, res_tile.as_deref_mut());
                }
            }
        }
    })?;
    Ok(StageTimings {
        input_transform: times[0],
        gemm: times[1],
        output_transform: times[2],
    })
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
    bodies: &TileBodies<'_>,
    gemm: &BlockGemm<'_>,
    nb: usize,
    saturated: &AtomicU64,
    ctx: &mut ConvContext,
) -> Result<StageTimings, ExecError> {
    let (tt, geom) = (bodies.tt, bodies.geom);
    let (n, m, t_count) = (geom.n, geom.m, geom.t());
    let (c_blocks, k_blocks) = (bodies.input.c_blocks(), bodies.output.c_blocks());
    let cp = c_blocks * LANES;
    let has_residual = bodies.post.residual.is_some();
    let ConvContext { pool, scratch, .. } = ctx;
    let scratch: &ScratchArena = scratch;
    let stage_ns = [const { AtomicU64::new(0) }; 3];
    let workers = pool.threads() as u64;
    pool.run_phases_catching(&[geom.total.div_ceil(nb)], |worker, _, range| {
        let _span = lowino_trace::span("lowino/chain");
        let mut ws = scratch.worker(worker);
        let WorkerScratch {
            transform,
            patch_f,
            tile_f,
            v_block,
            z_block,
            ..
        } = &mut *ws;
        tt.ensure_scratch(transform, LANES);
        // The patch doubles as phase ③'s gathered residual tile (m ≤ n).
        let patch = ensure_f32(patch_f, n * n * LANES);
        let y = ensure_f32(tile_f, m * m * LANES);
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
                        bodies.input_tile(tile0 + i, cb, transform, patch, lines)
                    };
                }
            }
            let t1 = Instant::now();
            gemm.run(nb, rows, v, z);
            let t2 = Instant::now();
            let mut res_tile = has_residual.then_some(&mut patch[..m * m * LANES]);
            for kg in 0..k_blocks {
                for i in 0..rows {
                    let at = (kg * nb + i) * t_count * LANES;
                    // SAFETY: tile blocks partition `0..N`, so output tile
                    // `tile0 + i` belongs to this task alone.
                    unsafe {
                        bodies.output_tile(
                            tile0 + i,
                            kg,
                            &z[at..at + t_count * LANES],
                            transform,
                            y,
                            res_tile.as_deref_mut(),
                        );
                    }
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
        note_saturation(saturated, sat, tiles * c_blocks * t_count * LANES);
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

impl ConvExecutor for LoWinoConv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::LoWino { m: self.geom.m }
    }

    /// One pool job per layer (paper §4.4) on the schedule [`chain_block`]
    /// picks — depth-first over L2-resident tile blocks, or the three
    /// staged phases — with working buffers drawn from the context's
    /// persistent per-worker [`ScratchArena`]. Transforms run on the
    /// **generated codelet kernels** with fused epilogues, in place
    /// wherever the tile geometry allows: phase ① reads interior tiles
    /// straight off the blocked image and quantizes `V` in-register during
    /// the row pass (the f32 `V` tile is never materialized); phase ③
    /// folds the `1/(α_V·α_U)` dequantization into the column-pass loads of
    /// the raw i32 `Z` block and stores full tiles straight into the
    /// output image. Per-lane arithmetic is identical in both schedules and
    /// to the interpreted, gather-everything
    /// [`LoWinoConv::execute_three_fork_join`], so outputs are bitwise
    /// identical (`tests/lowino_chained.rs`, `tests/lowino_in_place.rs` and
    /// the equivalence test below are the end-to-end oracle checks).
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        self.execute_impl(input, output, &ConvPostOps::default(), ctx)
    }

    /// Fused override of the default execute-then-apply path: the post-ops
    /// ride the phase-③ tape epilogue (see [`Self::execute_impl`]), so the
    /// activations are touched exactly once. Bitwise identical to the
    /// default implementation ([`crate::algo::apply_post_ops`]) because
    /// `((y + bias) + res).max(0.0)` is evaluated in the same order with
    /// the same IEEE ops.
    fn execute_post(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        self.execute_impl(input, output, post, ctx)
    }

    /// Saturation of the last execute's Winograd-domain quantized `V`,
    /// counted line by line as phase ① produced it. Padding channels
    /// quantize to the compensated zero, which the counter ignores;
    /// `total` counts only the real `T·N·C` values.
    fn saturation(&self) -> Option<(u64, u64)> {
        let total = self.geom.t() * self.geom.total * self.spec.in_c;
        Some((self.saturated.load(Ordering::Relaxed), total as u64))
    }

    fn gemm_shape(&self) -> Option<GemmShape> {
        // Qualified call: the inherent method shadows the trait's.
        Some(LoWinoConv::gemm_shape(self))
    }

    fn set_blocking(&mut self, b: Blocking) {
        LoWinoConv::set_blocking(self, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::calibrate::calibrate_winograd_domain;

    fn run_case(spec: ConvShape, m: usize, threads: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 131 + c * 31 + y * 7 + x) as f32 * 0.29).sin() * 1.5
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 17 + c * 5 + y * 3 + x) as f32 * 0.53).cos() * 0.25
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_winograd_domain(&spec, m, std::slice::from_ref(&img)).unwrap();
        let mut conv = LoWinoConv::new(spec, m, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(threads);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f2_accuracy_small_layer() {
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 2, 1);
        assert!(err < 0.03, "rel error {err}");
    }

    #[test]
    fn f4_accuracy_small_layer() {
        // Quantization noise on an 8-16 channel toy layer; real layers
        // (C >= 128) average the error down well below this.
        let err = run_case(ConvShape::same(2, 16, 16, 12, 3), 4, 2);
        assert!(err < 0.06, "rel error {err}");
    }

    fn run_case_per_position(spec: ConvShape, m: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 131 + c * 31 + y * 7 + x) as f32 * 0.29).sin() * 1.5
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 17 + c * 5 + y * 3 + x) as f32 * 0.53).cos() * 0.25
        });
        let want = crate::algo::direct_f32::reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal =
            crate::calibrate::calibrate_winograd_domain_per_position(&spec, m, std::slice::from_ref(&img))
                .unwrap();
        let mut conv = LoWinoConv::new_per_position(spec, m, &weights, &cal).unwrap();
        assert!(conv.is_per_position());
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(1);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f6_per_position_scales_make_large_tiles_usable() {
        // Per-tensor scales cannot span the cross-position magnitude
        // disparity of F(6,3) (the quiet central positions quantize to
        // ~nothing); per-position scales — the granularity extension —
        // recover the accuracy. This is the scale-granularity ablation.
        let spec = ConvShape::same(1, 8, 8, 14, 3);
        let per_tensor = run_case(spec, 6, 1);
        let per_position = run_case_per_position(spec, 6);
        assert!(
            per_position < 0.08,
            "per-position rel error {per_position}"
        );
        assert!(
            per_position < per_tensor / 3.0,
            "per-position {per_position} vs per-tensor {per_tensor}"
        );
    }

    #[test]
    fn f4_per_position_no_worse_than_per_tensor() {
        let spec = ConvShape::same(1, 16, 16, 12, 3);
        let pt = run_case(spec, 4, 1);
        let pp = run_case_per_position(spec, 4);
        assert!(pp <= pt * 1.5, "pp={pp} pt={pt}");
    }

    #[test]
    fn per_position_scale_count_validated() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let weights = Tensor4::zeros(8, 8, 3, 3);
        let err = LoWinoConv::new_per_position(spec, 2, &weights, &[QParams::UNIT; 3]);
        assert!(matches!(err, Err(ConvError::Calibration(_))));
    }

    #[test]
    fn ragged_tiles_and_many_channels() {
        // H' = 11 not divisible by m = 4; C crosses a 64 block.
        let err = run_case(ConvShape::same(1, 70, 66, 11, 3), 4, 2);
        assert!(err < 0.04, "rel error {err}");
    }

    #[test]
    fn multi_thread_matches_single_thread() {
        let spec = ConvShape::same(2, 8, 8, 10, 3).validate().unwrap();
        let input = Tensor4::from_fn(2, 8, 10, 10, |b, c, y, x| {
            ((b + c * 3 + y * 5 + x * 7) as f32 * 0.37).sin()
        });
        let weights = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
            ((k + c + y + x) as f32 * 0.41).cos() * 0.3
        });
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();
        let mut outs = Vec::new();
        for threads in [1, 3] {
            let mut conv = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
            let mut out = BlockedImage::zeros(2, 8, 10, 10);
            let mut ctx = ConvContext::new(threads);
            conv.execute(&img, &mut out, &mut ctx).unwrap();
            outs.push(out.to_nchw());
        }
        assert_eq!(outs[0].max_abs_diff(&outs[1]), 0.0);
    }

    #[test]
    fn blocking_override_is_used_and_equivalent() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let input = Tensor4::from_fn(1, 8, 8, 8, |_, c, y, x| ((c + y + x) as f32 * 0.3).sin());
        let weights = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
            ((k * 2 + c + y + x) as f32 * 0.5).cos() * 0.2
        });
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();
        let mut a = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
        let mut b = LoWinoConv::new(spec, 2, &weights, cal).unwrap();
        b.set_blocking(Blocking {
            n_blk: 4,
            c_blk: 4,
            k_blk: 64,
            row_blk: 2,
            col_blk: 1,
        });
        let mut ctx = ConvContext::new(1);
        let mut out_a = BlockedImage::zeros(1, 8, 8, 8);
        let mut out_b = BlockedImage::zeros(1, 8, 8, 8);
        a.execute(&img, &mut out_a, &mut ctx).unwrap();
        b.execute(&img, &mut out_b, &mut ctx).unwrap();
        assert_eq!(out_a.to_nchw().max_abs_diff(&out_b.to_nchw()), 0.0);
    }

    #[test]
    fn fused_is_one_fork_join_and_matches_three_fork_join() {
        let spec = ConvShape::same(2, 8, 16, 11, 3).validate().unwrap();
        let input = Tensor4::from_fn(2, 8, 11, 11, |b, c, y, x| {
            ((b * 3 + c * 7 + y * 11 + x * 13) as f32 * 0.31).sin()
        });
        let weights = Tensor4::from_fn(16, 8, 3, 3, |k, c, y, x| {
            ((k + c * 2 + y + x) as f32 * 0.43).cos() * 0.3
        });
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
        for threads in [1, 3] {
            let mut fused = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
            let mut legacy = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
            let mut ctx = ConvContext::new(threads);
            let mut out_fused = BlockedImage::zeros(2, 16, 11, 11);
            let mut out_legacy = BlockedImage::zeros(2, 16, 11, 11);
            let before = ctx.pool.fork_joins();
            fused.execute(&img, &mut out_fused, &mut ctx).unwrap();
            assert_eq!(
                ctx.pool.fork_joins() - before,
                1,
                "fused execute must be exactly one fork-join (threads={threads})"
            );
            legacy.execute_three_fork_join(&img, &mut out_legacy, &mut ctx);
            assert!(
                ctx.pool.fork_joins() - before > 1,
                "legacy path must fork-join per stage"
            );
            assert_eq!(
                out_fused.to_nchw().max_abs_diff(&out_legacy.to_nchw()),
                0.0,
                "fused and three-fork-join outputs must be bitwise identical (threads={threads})"
            );
        }
    }

    #[test]
    fn fused_post_ops_match_unfused_oracle_bitwise() {
        // Fused phase-③ epilogue vs execute-then-apply_post_ops (the
        // default trait path) — must agree bitwise for every post-op
        // combination, including ragged tiles (H' = 11, m = 4).
        use crate::algo::apply_post_ops;
        let spec = ConvShape::same(2, 8, 16, 11, 3).validate().unwrap();
        let input = Tensor4::from_fn(2, 8, 11, 11, |b, c, y, x| {
            ((b * 3 + c * 7 + y * 11 + x * 13) as f32 * 0.31).sin()
        });
        let weights = Tensor4::from_fn(16, 8, 3, 3, |k, c, y, x| {
            ((k + c * 2 + y + x) as f32 * 0.43).cos() * 0.3
        });
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
        let k_blocks = 1usize; // 16 channels
        let mut bias = vec![0.0f32; k_blocks * lowino_tensor::LANES];
        for (k, b) in bias.iter_mut().enumerate().take(16) {
            *b = (k as f32 * 0.37).sin() - 0.2;
        }
        let res_t = Tensor4::from_fn(2, 16, 11, 11, |b, c, y, x| {
            ((b + c * 5 + y * 3 + x * 2) as f32 * 0.19).cos() * 0.8
        });
        let res = BlockedImage::from_nchw(&res_t);
        for (use_bias, use_res, relu) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let post = ConvPostOps {
                bias: use_bias.then_some(bias.as_slice()),
                residual: use_res.then_some(&res),
                relu,
            };
            let mut ctx = ConvContext::new(2);
            let mut fused = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
            let mut out_fused = BlockedImage::zeros(2, 16, 11, 11);
            fused.execute_post(&img, &mut out_fused, &post, &mut ctx).unwrap();
            // Oracle: plain execute, then the reference elementwise pass.
            let mut plain = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
            let mut out_plain = BlockedImage::zeros(2, 16, 11, 11);
            plain.execute(&img, &mut out_plain, &mut ctx).unwrap();
            apply_post_ops(&mut out_plain, &post);
            let got: Vec<u32> = out_fused.data().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = out_plain.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, want,
                "bias={use_bias} res={use_res} relu={relu}"
            );
        }
    }

    #[test]
    fn io_mismatch_panics() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let weights = Tensor4::zeros(8, 8, 3, 3);
        let mut conv = LoWinoConv::new(spec, 2, &weights, QParams::UNIT).unwrap();
        let img = BlockedImage::zeros(1, 8, 9, 9); // wrong H/W
        let mut out = BlockedImage::zeros(1, 8, 8, 8);
        let mut ctx = ConvContext::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conv.execute(&img, &mut out, &mut ctx).unwrap();
        }));
        assert!(result.is_err());
    }
}
