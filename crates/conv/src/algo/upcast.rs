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

use lowino_gemm::{Blocking, Element, GemmShape, GemmTasks, UPanelI16, VPanelI16, ZPanel};
use lowino_quant::QParams;
use lowino_simd::vecf32::VecTier;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};
use lowino_winograd::{range_growth_2d, TileTransformer};

use crate::algo::spatial::{SpatialInt8, TileLanes};
use crate::algo::{check_io, resolve_blocking, Algorithm, ConvExecutor};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::filter::pack_filters_upcast;
use crate::scratch::ScratchArena;
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
    /// Stage ②'s blocking, in the units of [`GemmShape::as_u8i8`]: set by
    /// `set_blocking`, else resolved by the first execute
    /// ([`resolve_blocking`]) and kept.
    blocking: Option<Blocking>,
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
            blocking: None,
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
        check_io(&self.front.spec, input, output, ctx.non_finite)?;
        let shape = self.front.gemm_shape();
        let blocking = resolve_blocking(&mut self.blocking, &shape.as_u8i8(Element::I16), ctx);
        let front = &self.front;
        let (spec, geom) = (front.spec, front.geom);

        let ConvContext {
            pool,
            tier,
            scratch,
            ..
        } = ctx;
        let tier = *tier;
        let vt = VecTier::for_simd(tier);
        let scratch: &ScratchArena = scratch;

        let vp: &VPanelI16 = &self.v_panel;
        let gemm = GemmTasks::plan_i16(
            tier,
            &shape,
            &blocking,
            &self.v_panel,
            &self.u_panel,
            &mut self.z_panel,
        );
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
                front.input_tiles(vt, range, &mut ws, |t, tile, cb, lanes| {
                    // SAFETY: disjoint (t, tile, cb) groups per task.
                    let dst = unsafe {
                        let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                        core::slice::from_raw_parts_mut(dst, LANES)
                    };
                    // Up-cast ❶: exact in INT16 (capacity checked at plan
                    // time), whichever type carried the integers here.
                    match lanes {
                        TileLanes::F32(v) => {
                            for (d, &x) in dst.iter_mut().zip(v) {
                                *d = x as i16;
                            }
                        }
                        TileLanes::I32(v) => {
                            for (d, &x) in dst.iter_mut().zip(v) {
                                debug_assert!(i16::try_from(x).is_ok());
                                *d = x as i16;
                            }
                        }
                    }
                });
            }
            // -- Phase ②: INT16 GEMM (vpdpwssd — half VNNI throughput),
            // pipelined through the worker's packing scratch.
            2 => {
                let _span = lowino_trace::span("upcast/gemm");
                let mut ws = scratch.worker(worker);
                gemm.run_range(range, &mut ws.gemm_pack);
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

    /// The u8×i8 problem stage ②'s words amount to (`c = 2C`): what the
    /// tuner seeds a blocking for.
    fn gemm_shape(&self) -> Option<GemmShape> {
        Some(self.front.gemm_shape().as_u8i8(Element::I16))
    }

    fn set_blocking(&mut self, b: Blocking) {
        self.blocking = Some(b);
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
