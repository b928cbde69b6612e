//! **LoWino** — low-precision Winograd convolution with Winograd-domain
//! post-training quantization (the paper's contribution, §3–4).
//!
//! Pipeline (Fig. 3), as a scheme of the one staged executor
//! ([`crate::algo::winograd`]):
//!
//! 1. **Input transformation ①** — the tile *source* is the f32 blocked
//!    image itself (read in place when the tile lies inside it, gathered
//!    with its zero halo otherwise); the row-pass *epilogue* quantizes **in
//!    the Winograd domain** with the calibrated `α_V` (Eq. 4), adds the +128
//!    compensation, and writes each 64-channel group of `V` as one cache
//!    line;
//! 2. **Batched GEMM ②** — `T` tall-and-skinny `u8×i8→i32` products with
//!    compensation seeding (§4.3);
//! 3. **Output transformation ③** — the column-pass *prologue* de-quantizes
//!    each tile's `T×64` block of `Z` by `1/(α_V·α_U)` (Eq. 6) on load.
//!
//! Unlike the down-scaling baseline, the FP32 input is loaded directly (4×
//! the bytes of an INT8 load — the §5.3 transformation-time trade-off) and
//! no precision is lost to transform-domain rescaling; unlike the
//! up-casting baseline, the multiply stage runs at full `vpdpbusd`
//! throughput. And with no pre-pass to wait for, it is the one scheme that
//! may run depth-first ([`chain_block`]).

use std::sync::atomic::Ordering;
use std::time::Instant;

use lowino_gemm::{batched_gemm_u8i8, VPanel, ZPanel};
use lowino_quant::{count_saturated_u8, QParams};
use lowino_simd::{quantize_f32_lanes_i8, store::stream_fence, stream_store_u8_64};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4, LANES};

pub use crate::algo::winograd::chain_block;
use crate::algo::winograd::{plan_tiles, staged_panels, Scheme, WinogradConv, U8I8};
use crate::algo::{check_io, Algorithm};
use crate::context::{ConvContext, NonFinitePolicy};
use crate::error::ConvError;
use crate::filter::{pack_filters_lowino, pack_filters_lowino_per_position};
use crate::stats::StageTimings;
use crate::tiles::{gather_patch, scatter_output_tile, tile_coords, tile_origin};

/// The LoWino scheme: f32 tiles, Winograd-domain quantization, u8×i8 GEMM.
pub struct LoWino;

impl Scheme for LoWino {
    type Elem = U8I8;
    const SPANS: [&'static str; 4] =
        ["", "lowino/input_transform", "lowino/gemm", "lowino/output_transform"];

    fn algorithm(m: usize) -> Algorithm {
        Algorithm::LoWino { m }
    }
}

/// The LoWino executor.
pub type LoWinoConv = WinogradConv<LoWino>;

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
        let (spec, geom, tt) = plan_tiles(spec, m)?;
        let (u_panel, alpha_u) = pack_filters_lowino(&spec, &geom, &tt, weights)?;
        let t_count = geom.t();
        let inv = vec![1.0 / (input_scale.alpha * alpha_u.alpha); t_count];
        Ok(Self::assemble(spec, geom, tt, u_panel, None, vec![input_scale.alpha; t_count], inv))
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
        let (spec, geom, tt) = plan_tiles(spec, m)?;
        if input_scales.len() != geom.t() {
            return Err(ConvError::Calibration(format!(
                "expected {} per-position scales, got {}",
                geom.t(),
                input_scales.len()
            )));
        }
        let (u_panel, alpha_u) = pack_filters_lowino_per_position(&spec, &geom, &tt, weights)?;
        let inv = input_scales.iter().zip(&alpha_u).map(|(v, u)| 1.0 / (v.alpha * u.alpha)).collect();
        let quant = input_scales.iter().map(|q| q.alpha).collect();
        Ok(Self::assemble(spec, geom, tt, u_panel, None, quant, inv))
    }

    /// The pre-PR-2 execution schedule: three separate pool fork-joins
    /// (one per stage) with per-call scratch allocations inside the stage
    /// closures, every tile gathered and scattered, on the interpreted
    /// codelets. Kept verbatim as the reference point for the fork-join
    /// benchmark and the equivalence tests; [`crate::ConvExecutor::execute`] is
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
        let blocking = self.resolved_blocking(ctx);
        let (v_panel, z_panel) = staged_panels::<U8I8>(&mut self.panels, &shape);
        let tt = &self.tt;
        let tier = ctx.tier;
        let alpha_v: &[f32] = &self.quant;
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
        let inv_alpha: &[f32] = &self.inv;
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

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::algo::{ConvExecutor, ConvPostOps};
    use lowino_gemm::Blocking;
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
