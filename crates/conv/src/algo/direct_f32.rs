//! FP32 direct convolution — the correctness reference and the §5.1
//! full-precision baseline.
//!
//! Weights are re-packed offline to `[K/64][C][r][r][64]` so the inner loop
//! is a scalar-broadcast × 64-wide vector FMA over output channels, which
//! the compiler vectorises; supports arbitrary stride and padding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use lowino_simd::vecf32::VecTier;
use lowino_tensor::{AlignedBuf, BlockedImage, ConvShape, Tensor4, LANES};

use crate::algo::{check_io, check_post, store_pixel_post, Algorithm, ConvExecutor, ConvPostOps};
use crate::context::ConvContext;
use crate::error::{check_weights, ConvError, ExecError};
use crate::stats::StageTimings;

/// FP32 direct convolution executor.
pub struct DirectF32Conv {
    spec: ConvShape,
    /// `[K/64][C][r][r][64]` packed weights (padded K lanes are zero).
    wpack: AlignedBuf<f32>,
    k_blocks: usize,
    /// Non-finite values the last execute stored, tallied per pixel store.
    non_finite: AtomicU64,
}

impl DirectF32Conv {
    /// Pack weights (`K×C×r×r`) for the spec.
    pub fn new(spec: ConvShape, weights: &Tensor4) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        check_weights(&spec, weights)?;
        let k_blocks = spec.out_c.div_ceil(LANES);
        let r = spec.r;
        let mut wpack = AlignedBuf::<f32>::zeroed(k_blocks * spec.in_c * r * r * LANES);
        for k in 0..spec.out_c {
            let (kb, kl) = (k / LANES, k % LANES);
            for c in 0..spec.in_c {
                for dy in 0..r {
                    for dx in 0..r {
                        let o = (((kb * spec.in_c + c) * r + dy) * r + dx) * LANES + kl;
                        wpack.as_mut_slice()[o] = weights.at(k, c, dy, dx);
                    }
                }
            }
        }
        Ok(Self {
            spec,
            wpack,
            k_blocks,
            non_finite: AtomicU64::new(0),
        })
    }
}

impl ConvExecutor for DirectF32Conv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::DirectF32
    }

    /// One pool phase over output rows; each pixel's 64 accumulators get
    /// the post-ops in registers before their one store.
    fn execute_post(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        check_io(&self.spec, input, output)?;
        check_post(output, post);
        let start = Instant::now();
        let spec = self.spec;
        let (out_h, out_w) = (spec.out_h(), spec.out_w());
        let r = spec.r;
        let wpack = self.wpack.as_slice();
        let out_ref: &BlockedImage = output;
        // Task = (batch, k-block, output row); rows never overlap.
        let tasks = spec.batch * self.k_blocks * out_h;
        let k_blocks = self.k_blocks;
        let (non_finite, vt) = (&self.non_finite, VecTier::for_simd(ctx.tier));
        non_finite.store(0, Ordering::Relaxed);
        ctx.pool.run_phases_catching(&[tasks], |_, _, range| {
            let mut acc = [0f32; LANES];
            let mut bad = 0u64;
            for task in range {
                let b = task / (k_blocks * out_h);
                let kb = (task / out_h) % k_blocks;
                let oy = task % out_h;
                let bias = post.bias.map(|bias| &bias[kb * LANES..(kb + 1) * LANES]);
                for ox in 0..out_w {
                    acc.fill(0.0);
                    let iy0 = (oy * spec.stride) as isize - spec.pad as isize;
                    let ix0 = (ox * spec.stride) as isize - spec.pad as isize;
                    for dy in 0..r {
                        let iy = iy0 + dy as isize;
                        if iy < 0 || iy as usize >= spec.h {
                            continue;
                        }
                        for dx in 0..r {
                            let ix = ix0 + dx as isize;
                            if ix < 0 || ix as usize >= spec.w {
                                continue;
                            }
                            for c in 0..spec.in_c {
                                let x = input.lanes(b, c / LANES, iy as usize, ix as usize)
                                    [c % LANES];
                                if x != 0.0 {
                                    let wbase =
                                        (((kb * spec.in_c + c) * r + dy) * r + dx) * LANES;
                                    let w = &wpack[wbase..wbase + LANES];
                                    for l in 0..LANES {
                                        acc[l] += x * w[l];
                                    }
                                }
                            }
                        }
                    }
                    let res = post.residual.map(|res| res.lanes(b, kb, oy, ox));
                    // SAFETY: each (b, kb, oy) row is owned by one task.
                    bad += unsafe {
                        store_pixel_post(vt, acc, bias, res, post.relu, out_ref.lanes_ptr_shared(b, kb, oy, ox))
                    };
                }
            }
            non_finite.fetch_add(bad, Ordering::Relaxed);
        })?;
        Ok(StageTimings {
            input_transform: std::time::Duration::ZERO,
            gemm: start.elapsed(),
            output_transform: std::time::Duration::ZERO,
        })
    }

    /// Tallied per pixel store, one atomic add per task range.
    fn non_finite(&self) -> u64 {
        self.non_finite.load(Ordering::Relaxed)
    }
}

/// Scalar NCHW reference convolution — deliberately naive, used to validate
/// every other implementation (including `DirectF32Conv` itself).
pub fn reference_conv_nchw(spec: &ConvShape, input: &Tensor4, weights: &Tensor4) -> Tensor4 {
    let (out_h, out_w) = (spec.out_h(), spec.out_w());
    let mut out = Tensor4::zeros(spec.batch, spec.out_c, out_h, out_w);
    for b in 0..spec.batch {
        for k in 0..spec.out_c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = 0f32;
                    for c in 0..spec.in_c {
                        for dy in 0..spec.r {
                            for dx in 0..spec.r {
                                let iy = (oy * spec.stride + dy) as isize - spec.pad as isize;
                                let ix = (ox * spec.stride + dx) as isize - spec.pad as isize;
                                acc += input.at_padded(b, c, iy, ix) * weights.at(k, c, dy, dx);
                            }
                        }
                    }
                    *out.at_mut(b, k, oy, ox) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_input(spec: &ConvShape) -> Tensor4 {
        Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 97 + c * 31 + y * 7 + x) as f32 * 0.23).sin()
        })
    }

    fn rand_weights(spec: &ConvShape) -> Tensor4 {
        Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 13 + c * 5 + y * 3 + x) as f32 * 0.71).cos() * 0.2
        })
    }

    fn check(spec: ConvShape, threads: usize) {
        let spec = spec.validate().unwrap();
        let input = rand_input(&spec);
        let weights = rand_weights(&spec);
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut conv = DirectF32Conv::new(spec, &weights).unwrap();
        let mut ctx = ConvContext::new(threads);
        let t = conv.execute(&img, &mut out, &mut ctx).unwrap();
        assert!(t.total() > std::time::Duration::ZERO);
        let got = out.to_nchw();
        assert!(
            got.max_abs_diff(&want) < 1e-4,
            "diff {} (spec {spec:?})",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn matches_reference_same_padding() {
        check(ConvShape::same(2, 5, 9, 8, 3), 1);
    }

    #[test]
    fn matches_reference_no_padding() {
        check(
            ConvShape {
                batch: 1,
                in_c: 3,
                out_c: 4,
                h: 7,
                w: 9,
                r: 3,
                stride: 1,
                pad: 0,
            },
            2,
        );
    }

    #[test]
    fn matches_reference_strided() {
        check(
            ConvShape {
                batch: 1,
                in_c: 4,
                out_c: 70,
                h: 9,
                w: 9,
                r: 3,
                stride: 2,
                pad: 1,
            },
            2,
        );
    }

    #[test]
    fn matches_reference_5x5_filter() {
        check(
            ConvShape {
                batch: 1,
                in_c: 2,
                out_c: 2,
                h: 10,
                w: 10,
                r: 5,
                stride: 1,
                pad: 2,
            },
            1,
        );
    }

    #[test]
    fn matches_reference_many_channels() {
        check(ConvShape::same(1, 70, 130, 6, 3), 2);
    }

    #[test]
    fn wrong_weights_rejected() {
        let spec = ConvShape::same(1, 4, 4, 8, 3);
        assert!(DirectF32Conv::new(spec, &Tensor4::zeros(4, 4, 5, 5)).is_err());
    }
}
