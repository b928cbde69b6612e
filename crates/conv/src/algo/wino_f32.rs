//! FP32 Winograd convolution — the full-precision fast-algorithm baseline.
//!
//! Same three-stage pipeline as LoWino, with no quantization anywhere: the
//! transformed tiles stay in f32 and the GEMM — the same blocked driver and
//! register-tiled kernel, over f32 words — runs at FP32 throughput
//! (16 lanes/instr vs. VNNI's 64 MACs/instr — the 4× theoretical gap of
//! paper §2.1).

use lowino_gemm::{Blocking, Element, GemmShape, GemmTasks, UPanelF32, VPanelF32, ZPanelF32};
use lowino_simd::vecf32::VecTier;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, TileGeometry, LANES};
use lowino_winograd::TileTransformer;

use crate::algo::{check_io, resolve_blocking, Algorithm, ConvExecutor};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::filter::pack_filters_f32;
use crate::scratch::{ensure_f32, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;
use crate::tiles::{gather_patch, scatter_output_tile, tile_coords, tile_origin};

/// FP32 Winograd executor.
pub struct WinogradF32Conv {
    spec: ConvShape,
    geom: TileGeometry,
    tt: TileTransformer,
    u_panel: UPanelF32,
    v_panel: VPanelF32,
    z_panel: ZPanelF32,
    /// Stage ②'s blocking, in the units of [`GemmShape::as_u8i8`]: set by
    /// `set_blocking`, else resolved by the first execute
    /// ([`resolve_blocking`]) and kept.
    blocking: Option<Blocking>,
}

impl WinogradF32Conv {
    /// Plan an FP32 `F(m×m, r×r)` Winograd convolution.
    pub fn new(spec: ConvShape, m: usize, weights: &Tensor4) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let geom = spec.tiles(m)?;
        let tt = TileTransformer::new(m, spec.r)?;
        let u_panel = pack_filters_f32(&spec, &geom, &tt, weights)?;
        let t_count = geom.t();
        Ok(Self {
            spec,
            geom,
            tt,
            u_panel,
            v_panel: VPanelF32::new(t_count, geom.total, spec.in_c),
            z_panel: ZPanelF32::new(t_count, geom.total, spec.out_c),
            blocking: None,
        })
    }

    /// The FP32 GEMM of stage ②, in channels.
    fn shape(&self) -> GemmShape {
        let (spec, geom) = (&self.spec, &self.geom);
        GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c }
    }
}

impl ConvExecutor for WinogradF32Conv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::WinogradF32 { m: self.geom.m }
    }

    /// Single-fork-join schedule: the three stages run as barrier-separated
    /// phases of one pool job; working buffers come from the context's
    /// persistent per-worker [`ScratchArena`]. Transforms run on the
    /// compiled codelet tapes (bitwise identical to the interpreted
    /// reference).
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        check_io(&self.spec, input, output, ctx.non_finite)?;
        let shape = self.shape();
        let blocking = resolve_blocking(&mut self.blocking, &shape.as_u8i8(Element::F32), ctx);
        let spec = self.spec;
        let geom = self.geom;
        let (n, m, t_count) = (geom.n, geom.m, geom.t());
        let tt = &self.tt;

        let ConvContext {
            pool,
            tier,
            scratch,
            ..
        } = ctx;
        let vt = VecTier::for_simd(*tier);
        let scratch: &ScratchArena = scratch;

        let vp: &VPanelF32 = &self.v_panel;
        let gemm = GemmTasks::plan_f32(
            *tier,
            &shape,
            &blocking,
            &self.v_panel,
            &self.u_panel,
            &mut self.z_panel,
        );

        let out_ref: &BlockedImage = output;
        let totals = [
            input.c_blocks() * geom.total,
            gemm.total(),
            out_ref.c_blocks() * geom.total,
        ];
        let times = pool.run_phases_catching(&totals, |worker, phase, range| match phase {
            // -- Phase ①: FP32 input transform into the V panel.
            0 => {
                let _span = lowino_trace::span("wino_f32/input_transform");
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform,
                    patch_f,
                    tile_f,
                    ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let patch = ensure_f32(patch_f, n * n * LANES);
                let v = ensure_f32(tile_f, n * n * LANES);
                for task in range {
                    let cb = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let (y0, x0) = tile_origin(&spec, &geom, ty, tx);
                    gather_patch(input, b, cb, y0, x0, n, patch);
                    tt.input_tile_f32_compiled(vt, patch, v, transform);
                    for t in 0..t_count {
                        // SAFETY: disjoint (t, tile, cb) groups per task.
                        unsafe {
                            let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                            core::ptr::copy_nonoverlapping(v.as_ptr().add(t * LANES), dst, LANES);
                        }
                    }
                }
            }
            // -- Phase ②: FP32 batched GEMM, pipelined through the worker's
            // packing scratch.
            1 => {
                let _span = lowino_trace::span("wino_f32/gemm");
                let mut ws = scratch.worker(worker);
                gemm.run_range(range, &mut ws.gemm_pack);
            }
            // -- Phase ③: output transform.
            _ => {
                let _span = lowino_trace::span("wino_f32/output_transform");
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform, tile_f, ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let y = ensure_f32(tile_f, m * m * LANES);
                for task in range {
                    let kg = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let block = gemm.z().tile_block(kg, tile);
                    tt.output_tile_f32_compiled(vt, block, y, transform);
                    // SAFETY: output tiles never overlap.
                    unsafe {
                        scatter_output_tile(out_ref, b, kg, ty * m, tx * m, m, y);
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

    /// The u8×i8 problem stage ②'s words amount to (`c = 4C`): what the
    /// tuner seeds a blocking for.
    fn gemm_shape(&self) -> Option<GemmShape> {
        Some(self.shape().as_u8i8(Element::F32))
    }

    fn set_blocking(&mut self, b: Blocking) {
        self.blocking = Some(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;

    fn check(spec: ConvShape, m: usize, threads: usize, tol: f32) {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 53 + c * 11 + y * 5 + x) as f32 * 0.33).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 7 + c * 3 + y * 2 + x) as f32 * 0.61).cos() * 0.3
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let mut conv = WinogradF32Conv::new(spec, m, &weights).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(threads);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        let diff = out.to_nchw().max_abs_diff(&want);
        assert!(diff < tol, "diff {diff} (m={m}, spec={spec:?})");
    }

    #[test]
    fn f2_matches_direct() {
        check(ConvShape::same(1, 8, 8, 10, 3), 2, 1, 1e-3);
    }

    #[test]
    fn f4_matches_direct() {
        check(ConvShape::same(2, 16, 8, 12, 3), 4, 2, 1e-3);
    }

    #[test]
    fn f6_matches_direct_with_looser_tolerance() {
        // FP32 Winograd with m = 6 is numerically less stable (paper §2.2).
        check(ConvShape::same(1, 8, 8, 12, 3), 6, 1, 5e-2);
    }

    #[test]
    fn ragged_and_crossing_blocks() {
        check(ConvShape::same(1, 65, 70, 9, 3), 2, 2, 1e-3);
    }
}
