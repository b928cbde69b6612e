//! INT8 direct convolution (the "INT8 Direct Convolution – oneDNN" baseline
//! of paper Fig. 8), implemented as an **implicit GEMM**:
//!
//! 1. the input is quantized once into a spatially zero-padded
//!    `[B][H+2p][W+2p][C_p]` u8 buffer (padding pixels hold the compensated
//!    zero, 128 — the compensation algebra renders them inert);
//! 2. for each filter offset `(dy, dx)` the micro-kernel consumes the
//!    quantized buffer *in place* with shifted row pointers — no im2col
//!    materialisation, so each input byte is written once and read from
//!    cache, matching the memory behaviour of a production direct
//!    convolution;
//! 3. the `r²` offset passes accumulate into the same `Z` tile (seeded with
//!    the combined compensation row), then `Z` is de-quantized into the
//!    blocked output.

use std::sync::atomic::{AtomicU64, Ordering};

use lowino_gemm::kernel::{microkernel, Seed, Store};
use lowino_gemm::{Blocking, Element, GemmShape, UPanel, ZPanel};
use lowino_quant::QParams;
use lowino_simd::vecf32::VecTier;
use lowino_simd::{dequantize_lanes, quantize_lanes, store::stream_fence, stream_store_u8_64};
use lowino_tensor::{round_up, AlignedBuf, BlockedImage, ConvShape, Tensor4, LANES};

use crate::algo::{check_io, note_saturation, resolve_blocking, Algorithm, ConvExecutor};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::filter::pack_filters_direct_i8;
use crate::stats::StageTimings;

/// INT8 direct-convolution executor.
pub struct DirectInt8Conv {
    spec: ConvShape,
    /// `T = r²` filter panel (one tile position per offset).
    u_panel: UPanel,
    /// Combined compensation `Σ_t Z̄[t]` (seeds the first offset pass).
    zbar_total: AlignedBuf<i32>,
    alpha_in: QParams,
    alpha_w: QParams,
    /// Quantized, compensated, spatially padded input:
    /// `[B][H+2p][W+2p][C_p]` u8; padding pixels hold 128.
    qbuf: AlignedBuf<u8>,
    z_panel: ZPanel,
    cp: usize,
    /// Saturated quantized values of the last execute, tallied line by line
    /// as phase ① produces them.
    saturated: AtomicU64,
    /// The GEMM blocking: set by [`Self::set_blocking`], else resolved by
    /// the first execute ([`resolve_blocking`]) and kept.
    blocking: Option<Blocking>,
}

impl DirectInt8Conv {
    /// Plan an INT8 direct convolution. `input_scale` comes from
    /// [`crate::calibrate_spatial`].
    pub fn new(
        spec: ConvShape,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        if spec.stride != 1 {
            return Err(ConvError::Unsupported(
                "DirectInt8Conv currently supports stride 1 only".into(),
            ));
        }
        let cp = round_up(spec.in_c, LANES);
        let (u_panel, alpha_w) = pack_filters_direct_i8(&spec, weights)?;
        let t_count = spec.r * spec.r;
        let kp = u_panel.kp();
        let mut zbar_total = AlignedBuf::<i32>::zeroed(kp);
        for t in 0..t_count {
            for (dst, &z) in zbar_total.as_mut_slice().iter_mut().zip(u_panel.zbar(t)) {
                *dst += z;
            }
        }
        let (hp, wp) = (spec.h + 2 * spec.pad, spec.w + 2 * spec.pad);
        let mut qbuf = AlignedBuf::<u8>::zeroed(spec.batch * hp * wp * cp);
        // Padding pixels are the compensated zero. Fill everything once;
        // the interior is overwritten on every execute.
        qbuf.fill(128);
        let n = spec.batch * spec.out_h() * spec.out_w();
        Ok(Self {
            spec,
            u_panel,
            zbar_total,
            alpha_in: input_scale,
            alpha_w,
            qbuf,
            z_panel: ZPanel::new(1, n, spec.out_c),
            cp,
            saturated: AtomicU64::new(0),
            blocking: None,
        })
    }

    /// Set the GEMM blocking; the next execute runs with it.
    pub fn set_blocking(&mut self, b: Blocking) {
        self.blocking = Some(b);
    }

    /// The per-offset GEMM shape (for tuning; `r²` such passes run).
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape {
            t: self.spec.r * self.spec.r,
            n: self.spec.batch * self.spec.out_h() * self.spec.out_w(),
            c: self.spec.in_c,
            k: self.spec.out_c,
        }
    }
}

impl ConvExecutor for DirectInt8Conv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::DirectInt8
    }

    /// Single-fork-join schedule: quantization, the `r²` GEMM passes and
    /// de-quantization run as barrier-separated phases of one pool job.
    /// This executor's phase bodies use only small stack arrays, so —
    /// unlike the Winograd executors — it draws nothing from the scratch
    /// arena; the padded u8 buffer is a planned member already.
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        check_io(&self.spec, input, output, ctx.non_finite)?;
        let spec = self.spec;
        let (out_h, out_w) = (spec.out_h(), spec.out_w());
        let (hp, wp) = (spec.h + 2 * spec.pad, spec.w + 2 * spec.pad);
        let r = spec.r;
        let alpha = self.alpha_in.alpha;
        let cp = self.cp;
        let c_blocks = cp / LANES;

        let shape = self.gemm_shape();
        let blocking = resolve_blocking(&mut self.blocking, &shape, ctx);
        let blocking = lowino_gemm::normalize_for(&blocking, &shape);

        let ConvContext { pool, tier, .. } = ctx;
        let tier = *tier;
        let vt = VecTier::for_simd(tier);
        let kp = self.u_panel.kp();
        let zp: &ZPanel = &self.z_panel;
        let up: &UPanel = &self.u_panel;
        let qb: &AlignedBuf<u8> = &self.qbuf;
        let zbar: &[i32] = self.zbar_total.as_slice();
        let z_stride = zp.n_stride();
        let inv = self.alpha_in.product_dequant(&self.alpha_w);
        let out_ref: &BlockedImage = output;
        let k_blocks = out_ref.c_blocks();
        let saturated = &self.saturated;
        saturated.store(0, Ordering::Relaxed);

        let totals = [
            spec.batch * spec.h,
            // Task = one output row (b, oy); Z regions are disjoint per row.
            spec.batch * out_h,
            spec.batch * out_h * out_w,
        ];
        let times = pool.run_phases_catching(&totals, |_, phase, range| match phase {
            // -- Phase ①: quantize the input once into the padded u8 buffer.
            0 => {
                let _span = lowino_trace::span("direct_i8/quantize_input");
                let values = range.len() * spec.w * c_blocks * LANES;
                let mut sat = 0u64;
                let mut q = [0u8; LANES];
                for row in range {
                    let b = row / spec.h;
                    let y = row % spec.h;
                    for x in 0..spec.w {
                        for cb in 0..c_blocks {
                            let lanes = if cb < input.c_blocks() {
                                input.lanes(b, cb, y, x)
                            } else {
                                &[0.0; LANES]
                            };
                            quantize_lanes(vt, lanes, alpha, true, &mut q);
                            sat += lowino_quant::count_saturated_u8(&q);
                            let off = ((b * hp + y + spec.pad) * wp + x + spec.pad) * cp
                                + cb * LANES;
                            // SAFETY: each (b, y) row is owned by one task;
                            // offsets are in bounds and 64-byte aligned.
                            unsafe {
                                let dst = qb.as_ptr().add(off) as *mut u8;
                                let dst = core::slice::from_raw_parts_mut(dst, LANES);
                                stream_store_u8_64(tier, dst, &q);
                            }
                        }
                    }
                }
                note_saturation(Some(saturated), sat, values);
                stream_fence();
            }
            // -- Phase ②: r² shifted-pointer GEMM passes accumulating
            // into Z.
            1 => {
                let _span = lowino_trace::span("direct_i8/gemm");
                // Each task (one output row) runs r² shifted passes of an
                // out_w × cp × kp product.
                if lowino_trace::enabled() {
                    lowino_trace::counter(
                        "gemm/dpbusd_macs",
                        (range.len() * out_w * cp * kp * r * r) as u64,
                    );
                }
                for task in range {
                    let b = task / out_h;
                    let oy = task % out_h;
                    let n_base = (b * out_h + oy) * out_w;
                    let mut x0 = 0;
                    while x0 < out_w {
                        let x_end = (x0 + blocking.n_blk).min(out_w);
                        let mut k0 = 0;
                        while k0 < kp {
                            let k_end = (k0 + blocking.k_blk).min(kp);
                            for t in 0..r * r {
                                let (dy, dx) = (t / r, t % r);
                                let seed_first = t == 0;
                                let mut x1 = x0;
                                while x1 < x_end {
                                    let rb = (x_end - x1).min(blocking.row_blk);
                                    let mut k1 = k0;
                                    while k1 < k_end {
                                        let cb = ((k_end - k1) / 16).min(blocking.col_blk);
                                        let seed = if seed_first {
                                            Seed::Zbar(unsafe { zbar.as_ptr().add(k1) })
                                        } else {
                                            Seed::Accumulate
                                        };
                                        // SAFETY: the shifted input rows
                                        // (oy+dy, x1+dx .. x1+dx+rb) are
                                        // inside the padded buffer; Z rows
                                        // are owned by this task.
                                        unsafe {
                                            let v_ptr = qb.as_ptr().add(
                                                ((b * hp + oy + dy) * wp + x1 + dx) * cp,
                                            );
                                            let u_ptr = up.block_ptr(t, k1);
                                            let z_ptr =
                                                zp.store_ptr_shared(0, n_base + x1, k1);
                                            microkernel(
                                                tier,
                                                Element::U8I8,
                                                rb,
                                                cb,
                                                v_ptr,
                                                cp,
                                                u_ptr,
                                                up.word_stride(),
                                                cp / 4,
                                                seed,
                                                z_ptr,
                                                z_stride,
                                                Store::Stream,
                                            );
                                        }
                                        k1 += cb * 16;
                                    }
                                    x1 += rb;
                                }
                            }
                            k0 = k_end;
                        }
                        x0 = x_end;
                    }
                }
                stream_fence();
            }
            // -- Phase ③: de-quantize into the blocked output.
            _ => {
                let _span = lowino_trace::span("direct_i8/dequantize_output");
                let mut f = [0f32; LANES];
                for row in range {
                    let b = row / (out_h * out_w);
                    let oy = (row / out_w) % out_h;
                    let ox = row % out_w;
                    for kg in 0..k_blocks {
                        let block = zp.tile_block(kg, row); // T = 1 -> 64 lanes
                        dequantize_lanes(vt, block, inv, &mut f);
                        // SAFETY: one task per output pixel.
                        unsafe {
                            let dst = out_ref.lanes_ptr_shared(b, kg, oy, ox);
                            core::ptr::copy_nonoverlapping(f.as_ptr(), dst, LANES);
                        }
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

    /// Saturation of the last execute's quantized input, counted as phase ①
    /// produced it. Padded channels quantize to the compensated zero (128),
    /// which [`lowino_quant::count_saturated_u8`] ignores, so only real
    /// input values can count as saturated; the denominator is the real
    /// value count.
    fn saturation(&self) -> Option<(u64, u64)> {
        let spec = &self.spec;
        Some((self.saturated.load(Ordering::Relaxed), (spec.batch * spec.in_c * spec.h * spec.w) as u64))
    }

    fn gemm_shape(&self) -> Option<GemmShape> {
        // Qualified call: the inherent method shadows the trait's.
        Some(DirectInt8Conv::gemm_shape(self))
    }

    fn set_blocking(&mut self, b: Blocking) {
        DirectInt8Conv::set_blocking(self, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::calibrate::calibrate_spatial;

    fn run_case(spec: ConvShape, threads: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 101 + c * 29 + y * 13 + x) as f32 * 0.21).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 19 + c * 3 + y + x) as f32 * 0.47).cos() * 0.2
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
        let mut conv = DirectInt8Conv::new(spec, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(threads);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn int8_direct_accuracy() {
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 1);
        assert!(err < 0.05, "rel error {err}");
    }

    #[test]
    fn int8_direct_unpadded_and_multithreaded() {
        let spec = ConvShape {
            batch: 2,
            in_c: 5,
            out_c: 70,
            h: 9,
            w: 7,
            r: 3,
            stride: 1,
            pad: 0,
        };
        let err = run_case(spec, 3);
        assert!(err < 0.05, "rel error {err}");
    }

    #[test]
    fn int8_direct_wide_layer() {
        // Exercises multiple k-cache blocks and n-blocks per row.
        let err = run_case(ConvShape::same(1, 66, 130, 17, 3), 2);
        assert!(err < 0.05, "rel error {err}");
    }

    #[test]
    fn int8_direct_5x5_filter() {
        let spec = ConvShape {
            batch: 1,
            in_c: 4,
            out_c: 8,
            h: 10,
            w: 10,
            r: 5,
            stride: 1,
            pad: 2,
        };
        let err = run_case(spec, 1);
        assert!(err < 0.05, "rel error {err}");
    }

    #[test]
    fn stride_rejected() {
        let spec = ConvShape {
            stride: 2,
            ..ConvShape::same(1, 4, 4, 8, 3)
        };
        assert!(matches!(
            DirectInt8Conv::new(spec, &Tensor4::zeros(4, 4, 3, 3), QParams::UNIT),
            Err(ConvError::Unsupported(_))
        ));
    }

    #[test]
    fn saturation_is_tallied_in_phase_one_and_equals_a_buffer_scan() {
        // Calibrated on a quiet input, executed on one 40× louder: most
        // values clip. Padded channels (C = 70) and the halo never do.
        let spec = ConvShape::same(2, 70, 8, 9, 3).validate().unwrap();
        let quiet = BlockedImage::from_nchw(&Tensor4::from_fn(2, 70, 9, 9, |b, c, y, x| {
            ((b * 7 + c * 3 + y * 5 + x) as f32 * 0.29).sin()
        }));
        let mut loud = quiet.clone();
        loud.data_mut().iter_mut().for_each(|v| *v *= 40.0);
        let weights = Tensor4::from_fn(8, 70, 3, 3, |k, c, y, x| ((k + c + y + x) as f32 * 0.6).cos());
        let cal = calibrate_spatial(std::slice::from_ref(&quiet)).unwrap();
        let mut out = BlockedImage::zeros(2, 8, 9, 9);
        for threads in [1, 3] {
            let mut conv = DirectInt8Conv::new(spec, &weights, cal).unwrap();
            assert_eq!(conv.saturation(), Some((0, 2 * 70 * 81)), "nothing executed yet");
            let mut ctx = ConvContext::new(threads);
            // Twice: the tally is per execute, not cumulative.
            for _ in 0..2 {
                conv.execute(&loud, &mut out, &mut ctx).unwrap();
                let scanned = lowino_quant::count_saturated_u8(conv.qbuf.as_slice());
                assert!(scanned > 2 * 70 * 81 / 4, "the loud input must clip ({scanned})");
                assert_eq!(conv.saturation(), Some((scanned, 2 * 70 * 81)), "threads={threads}");
            }
            conv.execute(&quiet, &mut out, &mut ctx).unwrap();
            let scanned = lowino_quant::count_saturated_u8(conv.qbuf.as_slice());
            assert_eq!(conv.saturation().unwrap().0, scanned, "threads={threads}");
        }
    }

    #[test]
    fn repeated_execution_is_deterministic() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let input = Tensor4::from_fn(1, 8, 8, 8, |_, c, y, x| ((c + y + x) as f32 * 0.4).sin());
        let weights =
            Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| ((k + c + y + x) as f32 * 0.6).cos());
        let img = BlockedImage::from_nchw(&input);
        let mut conv = DirectInt8Conv::new(spec, &weights, QParams::from_threshold(2.0)).unwrap();
        let mut ctx = ConvContext::new(2);
        let mut outs = Vec::new();
        for _ in 0..3 {
            let mut out = BlockedImage::zeros(1, 8, 8, 8);
            conv.execute(&img, &mut out, &mut ctx).unwrap();
            outs.push(out.to_nchw());
        }
        assert_eq!(outs[0].max_abs_diff(&outs[1]), 0.0);
        assert_eq!(outs[1].max_abs_diff(&outs[2]), 0.0);
    }
}
