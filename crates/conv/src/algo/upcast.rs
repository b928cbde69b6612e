//! The up-casting low-precision Winograd baseline (paper §2.3, Fig. 2a —
//! the ncnn-style design).
//!
//! The input is quantized in the spatial domain (INT8) and transformed with
//! the integer `Bᵀ` **exactly** — the result is simply kept in a wider
//! type (INT16) instead of being squeezed back to INT8. No transform-domain
//! precision is lost (❶ of Fig. 2a is lossless), but the multiply stage
//! must run on `vpdpwssd`, at half the per-instruction MAC throughput of
//! `vpdpbusd` — the performance cost the paper attributes to this design.
//!
//! INT16 capacity bounds the tile size: the transform amplifies magnitudes
//! by `growth(m)`, so `growth(m)·127` must fit in i16 — true for `m ≤ 4`,
//! false for `m = 6`, which is exactly why ncnn only ships small tiles.

use lowino_gemm::int16::GemmTasksI16;
use lowino_gemm::{GemmShape, UPanelI16, VPanelI16, ZPanel};
use lowino_quant::QParams;
use lowino_simd::vecf32::VecTier;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};
use lowino_winograd::{range_growth_2d, TileTransformer};

use crate::algo::spatial::SpatialInt8;
use crate::algo::{check_io, Algorithm, ConvExecutor};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::filter::pack_filters_upcast;
use crate::scratch::{ensure_i32, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;

/// Up-casting Winograd INT16 executor.
pub struct UpCastConv {
    /// Spatial-domain quantization, tile gather and output transform
    /// (shared design with the down-scaling baseline).
    front: SpatialInt8,
    u_panel: UPanelI16,
    alpha_u: QParams,
    v_panel: VPanelI16,
    z_panel: ZPanel,
}

impl UpCastConv {
    /// Plan an up-casting Winograd convolution. `input_scale` is the
    /// spatial-domain scale from [`crate::calibrate_spatial`].
    ///
    /// Fails with [`ConvError::Unsupported`] when the transform growth
    /// exceeds INT16 capacity (`m ≥ 6` for `r = 3`) — the same limitation
    /// as the production up-casting implementations.
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let geom = spec.tiles(m)?;
        let growth = range_growth_2d(m, spec.r)?;
        if growth * 127.0 > f64::from(i16::MAX) {
            return Err(ConvError::Unsupported(format!(
                "up-casting F({m},{}) would overflow INT16: growth {growth:.0}× of ±127",
                spec.r
            )));
        }
        let tt = TileTransformer::new(m, spec.r)?;
        let (u_panel, alpha_u) = pack_filters_upcast(&spec, &geom, &tt, weights)?;
        let t_count = geom.t();
        Ok(Self {
            // Before the panels: allocated after them, the padded INT8 buffer
            // raises the heap's high-water mark by ~15 MiB on layers that are
            // rebuilt (EXPERIMENTS.md "PR 20").
            front: SpatialInt8::new(spec, geom, tt, input_scale.alpha),
            u_panel,
            alpha_u,
            v_panel: VPanelI16::new(t_count, geom.total, spec.in_c),
            z_panel: ZPanel::new(t_count, geom.total, spec.out_c),
        })
    }
}

impl ConvExecutor for UpCastConv {
    fn spec(&self) -> &ConvShape {
        &self.front.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::UpCast { m: self.front.geom.m }
    }

    /// Single-fork-join schedule: the four stages (spatial quantization,
    /// integer transform, INT16 GEMM, output transform) run as
    /// barrier-separated phases of one pool job, with working buffers from
    /// the context's persistent per-worker [`ScratchArena`].
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        let front = &self.front;
        check_io(&front.spec, input, output, ctx.non_finite)?;
        let (spec, geom, tt) = (front.spec, front.geom, &front.tt);
        let (n, t_count) = (geom.n, geom.t());

        let ConvContext {
            pool,
            tier,
            scratch,
            ..
        } = ctx;
        let tier = *tier;
        let vt = VecTier::for_simd(tier);
        let scratch: &ScratchArena = scratch;

        let shape = GemmShape {
            t: t_count,
            n: geom.total,
            c: spec.in_c,
            k: spec.out_c,
        };
        let vp: &VPanelI16 = &self.v_panel;
        let gemm = GemmTasksI16::plan(tier, &shape, &self.v_panel, &self.u_panel, &mut self.z_panel);
        let inv = 1.0 / (front.alpha_in * self.alpha_u.alpha);

        let out_ref: &BlockedImage = output;
        let totals = [
            spec.batch * spec.h,
            front.c_blocks() * geom.total,
            gemm.total(),
            out_ref.c_blocks() * geom.total,
        ];
        let times = pool.run_phases_catching(&totals, |worker, phase, range| match phase {
            // -- Phase ① part A: quantize the input once into the padded
            // INT8 buffer.
            0 => {
                let _span = lowino_trace::span("upcast/quantize_input");
                // SAFETY: each (b, y) row is one task of this phase, and
                // nothing reads the buffer before the phase barrier.
                unsafe { front.quantize_rows(input, range) };
            }
            // -- Phase ① part B: exact integer transform of INT8 → INT16.
            1 => {
                let _span = lowino_trace::span("upcast/input_transform");
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform,
                    patch_i,
                    tile_i,
                    ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let patch_q = ensure_i32(patch_i, n * n * LANES);
                let v_int = ensure_i32(tile_i, n * n * LANES);
                for task in range {
                    let cb = task / geom.total;
                    let tile = task % geom.total;
                    front.gather_tile(tile, cb, patch_q);
                    tt.input_tile_i32(patch_q, v_int, transform);
                    // Up-cast ❶: exact in INT16 (capacity checked at plan
                    // time).
                    for t in 0..t_count {
                        // SAFETY: disjoint (t, tile, cb) groups per task.
                        unsafe {
                            let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                            for l in 0..LANES {
                                let val = v_int[t * LANES + l];
                                debug_assert!(
                                    val >= i32::from(i16::MIN) && val <= i32::from(i16::MAX)
                                );
                                *dst.add(l) = val as i16;
                            }
                        }
                    }
                }
            }
            // -- Phase ②: INT16 GEMM (vpdpwssd — half VNNI throughput).
            2 => {
                let _span = lowino_trace::span("upcast/gemm");
                gemm.run_range(range);
            }
            // -- Phase ③: fused de-quantize + output transform. The integer
            // transform is exact, so the only scales are the spatial α_in
            // and the filter α_U.
            _ => {
                let _span = lowino_trace::span("upcast/output_transform");
                let mut ws = scratch.worker(worker);
                // SAFETY: one task per (kg, tile) — output tiles never
                // overlap.
                unsafe { front.output_tiles(vt, gemm.z(), inv, out_ref, range, &mut ws) };
            }
        })?;
        Ok(StageTimings {
            input_transform: times[0] + times[1],
            gemm: times[2],
            output_transform: times[3],
        })
    }

    /// Saturation of the last execute's spatially-quantized INT8 input
    /// buffer. Padding bytes are zero (never on the ±127 clamp bounds), so
    /// scanning the whole padded buffer is exact; `total` counts only the
    /// real `B·C·H·W` values.
    fn saturation(&self) -> Option<(u64, u64)> {
        let spec = &self.front.spec;
        let sat = lowino_quant::count_saturated_i8(self.front.quantized());
        Some((sat, (spec.batch * spec.in_c * spec.h * spec.w) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::calibrate::calibrate_spatial;

    fn run_case(spec: ConvShape, m: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 71 + c * 37 + y * 13 + x) as f32 * 0.27).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 5 + c * 3 + y * 2 + x) as f32 * 0.67).cos() * 0.3
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
        let mut conv = UpCastConv::new(spec, m, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(2);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f2_accuracy_is_spatial_quant_limited() {
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 2);
        assert!(err < 0.04, "rel error {err}");
    }

    #[test]
    fn f4_accuracy_no_downscale_collapse() {
        // Up-casting quantizes in the spatial domain, so its rounding error
        // is amplified by the transform (up to 100x for F(4,3)) — worse
        // than LoWino, but nothing like the down-scaling collapse. Its real
        // cost is throughput (INT16 multiply), not a broken output.
        let err = run_case(ConvShape::same(1, 16, 8, 12, 3), 4);
        assert!(err < 0.25, "rel error {err}");
    }

    #[test]
    fn f6_rejected_for_int16_overflow() {
        let spec = ConvShape::same(1, 4, 4, 12, 3).validate().unwrap();
        let err = match UpCastConv::new(spec, 6, &Tensor4::zeros(4, 4, 3, 3), QParams::UNIT) {
            Err(e) => e,
            Ok(_) => panic!("F(6,3) up-casting must be rejected"),
        };
        assert!(matches!(err, ConvError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("INT16"));
    }
}
