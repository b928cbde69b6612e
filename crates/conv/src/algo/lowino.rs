//! **LoWino** — low-precision Winograd convolution with Winograd-domain
//! post-training quantization (the paper's contribution, §3–4).
//!
//! Pipeline (Fig. 3):
//!
//! 1. **Input transformation ①** — read each `n×n×64` tile of the blocked
//!    image (in place when it lies inside the image, gathered with its
//!    zero halo otherwise), transform in FP32 (`V = Bᵀ d B`), quantize *in
//!    the Winograd domain* with the calibrated `α_V` (Eq. 4), add the +128
//!    compensation, and scatter each 64-channel group as one cache line
//!    into the `V` panel with non-temporal stores (§4.2.1);
//! 2. **Batched GEMM ②** — `T` tall-and-skinny `u8×i8→i32` products with
//!    compensation seeding (§4.3);
//! 3. **Output transformation ③** — read each tile's `T×64` block
//!    contiguously from `Z`, de-quantize by `1/(α_V·α_U)` (Eq. 6),
//!    inverse-transform (`y = Aᵀ Z A`) and store into the blocked output
//!    (full tiles directly, ragged-edge tiles through a clipping scatter).
//!
//! Unlike the down-scaling baseline, the FP32 input is loaded directly (4×
//! the bytes of an INT8 load — the §5.3 transformation-time trade-off) and
//! no precision is lost to transform-domain rescaling; unlike the
//! up-casting baseline, the multiply stage runs at full `vpdpbusd`
//! throughput.

use std::time::Instant;

use lowino_gemm::{batched_gemm_u8i8, Blocking, GemmShape, GemmTasks, UPanel, VPanel, ZPanel};
use lowino_quant::QParams;
use lowino_simd::vecf32::VecTier;
use lowino_simd::{quantize_f32_lanes_i8, store::stream_fence, stream_store_u8_64};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, TileGeometry, LANES};
use lowino_winograd::TileTransformer;

use crate::algo::{check_io, Algorithm, ConvExecutor, ConvPostOps};
use crate::context::{ConvContext, NonFinitePolicy};
use crate::error::{ConvError, ExecError};
use crate::filter::{pack_filters_lowino, pack_filters_lowino_per_position};
use crate::scratch::{ensure_f32, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;
use crate::tiles::{gather_patch, scatter_output_tile, tile_coords, tile_origin};

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
    v_panel: VPanel,
    z_panel: ZPanel,
    blocking_override: Option<Blocking>,
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
            v_panel: VPanel::new(t_count, geom.total, spec.in_c),
            z_panel: ZPanel::new(t_count, geom.total, spec.out_c),
            blocking_override: None,
        }
    }

    /// Whether per-tile-position scales are in use.
    pub fn is_per_position(&self) -> bool {
        self.per_position
    }

    /// Override the GEMM blocking (wisdom/tuner integration and the
    /// blocking ablation bench).
    pub fn set_blocking(&mut self, b: Blocking) {
        self.blocking_override = Some(b);
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

    /// The pre-PR-2 execution schedule: three separate pool fork-joins
    /// (one per stage) with per-call scratch allocations inside the stage
    /// closures. Kept verbatim as the reference point for the fork-join
    /// benchmark and the fused-equivalence tests; [`ConvExecutor::execute`]
    /// is the production single-fork-join path.
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
        let tt = &self.tt;
        let tier = ctx.tier;
        let alpha_v: &[f32] = &self.alpha_v;

        // -- Stage ①: input transformation + Winograd-domain quantization.
        let start = Instant::now();
        let vp: &VPanel = &self.v_panel;
        let c_blocks = input.c_blocks();
        let tasks = c_blocks * geom.total;
        ctx.pool.run(tasks, |_, range| {
            let mut scratch = tt.make_scratch(LANES);
            let mut patch = vec![0f32; n * n * LANES];
            let mut v = vec![0f32; n * n * LANES];
            let mut q = [0u8; LANES];
            for task in range {
                let cb = task / geom.total;
                let tile = task % geom.total;
                let (b, ty, tx) = tile_coords(&geom, tile);
                let (y0, x0) = tile_origin(&spec, &geom, ty, tx);
                gather_patch(input, b, cb, y0, x0, n, &mut patch);
                tt.input_tile_f32(&patch, &mut v, &mut scratch);
                for t in 0..t_count {
                    quantize_f32_lanes_i8(&v[t * LANES..(t + 1) * LANES], alpha_v[t], true, &mut q);
                    // SAFETY: each (t, tile, cb) cache line is written by
                    // exactly one task; rows are 64-byte aligned.
                    unsafe {
                        let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                        let dst = core::slice::from_raw_parts_mut(dst, LANES);
                        stream_store_u8_64(tier, dst, &q);
                    }
                }
            }
            stream_fence();
        });
        timings.input_transform = start.elapsed();

        // -- Stage ②: batched low-precision GEMM.
        let start = Instant::now();
        let shape = self.gemm_shape();
        let blocking = ctx.gemm_blocking(&shape, self.blocking_override);
        batched_gemm_u8i8(
            tier,
            &shape,
            &blocking,
            &self.v_panel,
            &self.u_panel,
            &mut self.z_panel,
            &mut ctx.pool,
        );
        timings.gemm = start.elapsed();

        // -- Stage ③: de-quantize + output transformation.
        let start = Instant::now();
        let inv_alpha: &[f32] = &self.inv_alpha;
        let zp: &ZPanel = &self.z_panel;
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

    /// The fused single-fork-join body shared by [`ConvExecutor::execute`]
    /// (`post` empty) and [`ConvExecutor::execute_post`]: phase ③ threads
    /// the per-destination post-ops into the output-transform tape's row
    /// pass, so bias/residual/ReLU happen in-register between the inverse
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
        let spec = self.spec;
        let geom = self.geom;
        let (n, m, t_count) = (geom.n, geom.m, geom.t());
        let tt = &self.tt;
        let alpha_v: &[f32] = &self.alpha_v;
        let inv_alpha: &[f32] = &self.inv_alpha;

        // Resolve stage ②'s blocking (published winner → override → seed)
        // before splitting the context.
        let shape = GemmShape {
            t: t_count,
            n: geom.total,
            c: spec.in_c,
            k: spec.out_c,
        };
        let blocking = ctx.gemm_blocking(&shape, self.blocking_override);

        // Split the context so the pool (`&mut`) and the shared arena can
        // be used simultaneously.
        let ConvContext {
            pool,
            tier,
            scratch,
            ..
        } = ctx;
        let tier = *tier;
        let vt = VecTier::for_simd(tier);
        let scratch: &ScratchArena = scratch;

        // Plan stage ② up front; the plan's exclusive borrow of `Z` lives
        // through the whole fork-join (phase ③ reads it via `z()`).
        let vp: &VPanel = &self.v_panel;
        let gemm = GemmTasks::plan(
            tier,
            &shape,
            &blocking,
            &self.v_panel,
            &self.u_panel,
            &mut self.z_panel,
        );

        let c_blocks = input.c_blocks();
        let k_blocks = output.c_blocks();
        let out_ref: &BlockedImage = output;
        let totals = [
            c_blocks * geom.total,
            gemm.total(),
            k_blocks * geom.total,
        ];
        let times = pool.run_phases_catching(&totals, |worker, phase, range| match phase {
            // -- Phase ①: input transform with the quantize epilogue fused
            // into the row pass; every finished 64-channel V line is
            // stream-stored as one cache line into the V panel. Interior
            // tiles are transformed in place off the blocked image; tiles
            // that overlap the zero-padding halo go through `gather_patch`.
            0 => {
                let _span = lowino_trace::span("lowino/input_transform");
                // One gate load per phase body; saturation totals accumulate
                // locally and flush as a single counter add per worker.
                let tracing = lowino_trace::enabled();
                let mut saturated = 0u64;
                let values = (range.len() * t_count * LANES) as u64;
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform, patch_f, ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let patch = ensure_f32(patch_f, n * n * LANES);
                let (_, _, in_h, in_w) = input.dims();
                for task in range {
                    let cb = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let (y0, x0) = tile_origin(&spec, &geom, ty, tx);
                    let interior = y0 >= 0
                        && x0 >= 0
                        && y0 as usize + n <= in_h
                        && x0 as usize + n <= in_w;
                    // `task < c_blocks · N`, so (cb, tile) is this task's alone.
                    debug_assert!(cb < c_blocks);
                    let (d, d_base, d_row_stride) = if interior {
                        // Rows y0..y0+n and columns x0..x0+n are inside the
                        // image, so all n×n lane groups are in bounds (safe
                        // slice reads; the tape re-checks the span).
                        let base = input.offset(b, cb, y0 as usize, x0 as usize);
                        debug_assert!(base + ((n - 1) * in_w + n) * LANES <= input.data().len());
                        (input.data(), base, in_w * LANES)
                    } else {
                        gather_patch(input, b, cb, y0, x0, n, patch);
                        (&*patch, 0, n * LANES)
                    };
                    let sink = |t: usize, line: &[u8]| {
                        let line: &[u8; LANES] = line.try_into().expect("one V line per sink call");
                        if tracing {
                            saturated += lowino_quant::count_saturated_u8(line);
                        }
                        // SAFETY: `t < T` and `tile < N` index a row of the
                        // V panel (checked by `row_ptr_shared` in debug
                        // builds) and `cb·64 + 64 ≤ C_p`, so the 64 bytes
                        // are inside the row; each (t, tile, cb) line is
                        // written by exactly one task of this phase, and
                        // nothing reads V before the phase barrier.
                        unsafe {
                            let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                            debug_assert!(dst.addr().is_multiple_of(LANES) && (cb + 1) * LANES <= vp.cp());
                            stream_store_u8_64(tier, core::slice::from_raw_parts_mut(dst, LANES), line);
                        }
                    };
                    tt.input_tile_quantized_with(
                        vt, d, d_base, d_row_stride, alpha_v, true, transform, sink,
                    );
                }
                if tracing {
                    lowino_trace::counter("quant/saturated", saturated);
                    lowino_trace::counter("quant/values", values);
                }
                // Drain the non-temporal stores before the phase barrier —
                // the GEMM phase reads V from other threads.
                stream_fence();
            }
            // -- Phase ②: batched low-precision GEMM, pipelined through
            // the worker's double-buffered packing scratch.
            1 => {
                let _span = lowino_trace::span("lowino/gemm");
                let mut ws = scratch.worker(worker);
                gemm.run_range(range, &mut ws.gemm_pack);
            }
            // -- Phase ③: output transform consuming the raw i32 Z block,
            // dequantization fused into the column-pass loads and the
            // post-op epilogue (bias / residual tile / ReLU) fused into the
            // row-pass stores. Full tiles are stored straight into the
            // output image (residual read in place); tiles clipped by the
            // ragged edge go through a tile buffer and
            // `scatter_output_tile`.
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
                // residual tile (clipped slots read zeros and are never
                // scattered, so their epilogue results are discarded).
                let mut res_tile = post
                    .residual
                    .map(|_| ensure_f32(patch_f, m * m * LANES));
                let (_, _, out_h, out_w) = out_ref.dims();
                for task in range {
                    let kg = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let (oy, ox) = (ty * m, tx * m);
                    // `task < k_blocks · N`, so (kg, tile) is this task's alone.
                    debug_assert!(kg < k_blocks);
                    let block = gemm.z().tile_block(kg, tile);
                    let bias = post.bias.map(|bb| &bb[kg * LANES..(kg + 1) * LANES]);
                    if oy + m <= out_h && ox + m <= out_w {
                        let base = out_ref.offset(b, kg, oy, ox);
                        let tape_post = lowino_winograd::TapePostOps {
                            bias,
                            residual: post.residual.map(|res| (res.data(), base, LANES)),
                            relu: post.relu,
                        };
                        // SAFETY: the tile is full, so rows oy..oy+m hold m
                        // in-bounds pixels each from column ox — m·64
                        // contiguous values at row pitch out_w·64, the last
                        // ending at or before the image's end; output tiles
                        // never overlap and this task is the tile's only
                        // writer. The residual has the output's dims, so
                        // the same base and pitch address its tile.
                        unsafe {
                            debug_assert!(
                                base + ((m - 1) * out_w + m) * LANES <= out_ref.data().len()
                            );
                            tt.output_tile_dequantized_post_strided(
                                vt,
                                block,
                                inv_alpha,
                                1,
                                tape_post,
                                out_w * LANES,
                                out_ref.lanes_ptr_shared(b, kg, oy, ox),
                                out_w * LANES,
                                transform,
                            );
                        }
                        continue;
                    }
                    if let (Some(res), Some(rt)) = (post.residual, res_tile.as_deref_mut()) {
                        gather_patch(res, b, kg, oy as isize, ox as isize, m, rt);
                    }
                    let tape_post = lowino_winograd::TapePostOps {
                        bias,
                        residual: res_tile.as_deref().map(|rt| (rt, 0, LANES)),
                        relu: post.relu,
                    };
                    tt.output_tile_dequantized_post(
                        vt, block, inv_alpha, 1, tape_post, y, transform,
                    );
                    // SAFETY: output tiles never overlap; one task per tile.
                    unsafe {
                        scatter_output_tile(out_ref, b, kg, oy, ox, m, y);
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
}

impl ConvExecutor for LoWinoConv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::LoWino { m: self.geom.m }
    }

    /// The fused single-fork-join schedule (paper §4.4): all three pipeline
    /// stages run inside **one** pool job, separated by in-pool barriers,
    /// with working buffers drawn from the context's persistent per-worker
    /// [`ScratchArena`]. Transforms run on the **generated codelet
    /// kernels** with fused epilogues, in place wherever the tile geometry
    /// allows: phase ① reads interior tiles straight off the blocked image
    /// and quantizes `V` in-register during the row pass, stream-storing
    /// each 64-byte line (the f32 `V` tile is never materialized); phase ③
    /// folds the `1/(α_V·α_U)` dequantization into the column-pass loads of
    /// the raw i32 `Z` block and stores full tiles straight into the
    /// output image. Task decomposition and per-lane arithmetic are
    /// identical to the interpreted, gather-everything
    /// [`LoWinoConv::execute_three_fork_join`], so outputs are bitwise
    /// identical (`tests/lowino_in_place.rs` and the equivalence test below
    /// are the end-to-end oracle checks).
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

    /// Saturation of the last execute's Winograd-domain quantized `V`
    /// panel. Padding channels are zero bytes, which the compensated-u8
    /// counter ignores, so scanning full padded rows is exact; `total`
    /// counts only the real `T·N·C` values.
    fn saturation(&self) -> Option<(u64, u64)> {
        let (t, n, c, _) = self.v_panel.dims();
        let mut sat = 0u64;
        for ti in 0..t {
            for ni in 0..n {
                sat += lowino_quant::count_saturated_u8(self.v_panel.row(ti, ni));
            }
        }
        Some((sat, (t * n * c) as u64))
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
