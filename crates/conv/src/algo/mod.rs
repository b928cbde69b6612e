//! The convolution algorithm implementations.

pub mod direct_f32;
pub mod direct_i8;
pub mod downscale;
pub mod lowino;
pub mod upcast;
pub mod wino_f32;
pub mod winograd;

use lowino_tensor::{BlockedImage, ConvShape, LANES};

use crate::context::{ConvContext, NonFinitePolicy};
use crate::error::ExecError;
use crate::stats::StageTimings;

/// Per-destination post-ops applied to a convolution's output — the graph
/// engine's bias / skip-connection add / ReLU, folded into the layer so no
/// separate elementwise pass over the activations is needed.
///
/// The contract, per output element (in this exact order and spelling, the
/// bitwise bar every implementation — fused or not — must meet):
///
/// ```text
/// v = conv_output
/// v = v + bias[k]        (when bias is set; k = output channel)
/// v = v + residual[...]  (when residual is set; same position)
/// v = max(v, 0.0)        (when relu; maxps semantics: v > 0.0 ? v : 0.0)
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvPostOps<'a> {
    /// Per-output-channel bias in the blocked layout: at least
    /// `k_blocks·64` values, zero-padded past `out_c` so padding lanes stay
    /// zero. Lane `l` of channel group `kg` gains `bias[kg·64 + l]`.
    pub bias: Option<&'a [f32]>,
    /// Skip-connection image added element-wise; must have exactly the
    /// output's dims (padding lanes must be zero, as every producer in the
    /// blocked pipeline guarantees).
    pub residual: Option<&'a BlockedImage>,
    /// Apply `max(·, 0.0)` last.
    pub relu: bool,
}

impl ConvPostOps<'_> {
    /// True when no post-op is requested (`execute_post` ≡ `execute`).
    pub fn is_empty(&self) -> bool {
        self.bias.is_none() && self.residual.is_none() && !self.relu
    }
}

/// Reference application of [`ConvPostOps`] as a separate elementwise pass
/// — the oracle the fused epilogues are tested against, and the default
/// path for executors that don't fuse.
///
/// # Panics
///
/// Panics when `bias` is shorter than `k_blocks·64` or `residual` dims
/// don't match the output.
pub fn apply_post_ops(output: &mut BlockedImage, post: &ConvPostOps<'_>) {
    if post.is_empty() {
        return;
    }
    let (batch, _, h, w) = output.dims();
    let k_blocks = output.c_blocks();
    if let Some(bias) = post.bias {
        assert!(
            bias.len() >= k_blocks * LANES,
            "blocked bias too short: {} < {}",
            bias.len(),
            k_blocks * LANES
        );
    }
    if let Some(res) = post.residual {
        assert_eq!(res.dims(), output.dims(), "residual dims mismatch");
    }
    for b in 0..batch {
        for kg in 0..k_blocks {
            for y in 0..h {
                for x in 0..w {
                    for l in 0..LANES {
                        let mut v = output.lanes(b, kg, y, x)[l];
                        if let Some(bias) = post.bias {
                            v += bias[kg * LANES + l];
                        }
                        if let Some(res) = post.residual {
                            v += res.lanes(b, kg, y, x)[l];
                        }
                        if post.relu {
                            v = if v > 0.0 { v } else { 0.0 };
                        }
                        output.lanes_mut(b, kg, y, x)[l] = v;
                    }
                }
            }
        }
    }
}

/// Algorithm identifiers (the paper's comparison set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// FP32 direct convolution (reference / §5.1 baseline).
    DirectF32,
    /// INT8 direct convolution (im2col + VNNI GEMM; "oneDNN direct").
    DirectInt8,
    /// FP32 Winograd `F(m×m, r×r)`.
    WinogradF32 {
        /// Output tile size `m`.
        m: usize,
    },
    /// LoWino: Winograd-domain PTQ INT8 Winograd (the paper's approach).
    LoWino {
        /// Output tile size `m`.
        m: usize,
    },
    /// Down-scaling INT8 Winograd (oneDNN-style baseline, §2.3).
    DownScale {
        /// Output tile size `m`.
        m: usize,
    },
    /// Up-casting INT16 Winograd (ncnn-style baseline, §2.3).
    UpCast {
        /// Output tile size `m`.
        m: usize,
    },
}

impl Algorithm {
    /// Human-readable name used in harness output.
    pub fn name(&self) -> String {
        match self {
            Algorithm::DirectF32 => "direct-f32".into(),
            Algorithm::DirectInt8 => "direct-int8".into(),
            Algorithm::WinogradF32 { m } => format!("winograd-f32 F({m}x{m},3x3)"),
            Algorithm::LoWino { m } => format!("lowino F({m}x{m},3x3)"),
            Algorithm::DownScale { m } => format!("downscale F({m}x{m},3x3)"),
            Algorithm::UpCast { m } => format!("upcast F({m}x{m},3x3)"),
        }
    }

    /// The Winograd tile size, if this is a Winograd algorithm.
    pub fn tile_m(&self) -> Option<usize> {
        match self {
            Algorithm::WinogradF32 { m }
            | Algorithm::LoWino { m }
            | Algorithm::DownScale { m }
            | Algorithm::UpCast { m } => Some(*m),
            _ => None,
        }
    }

    /// Whether the algorithm needs a spatial-domain input scale.
    pub fn needs_spatial_scale(&self) -> bool {
        matches!(
            self,
            Algorithm::DirectInt8 | Algorithm::DownScale { .. } | Algorithm::UpCast { .. }
        )
    }

    /// Whether the algorithm needs a Winograd-domain input scale (LoWino).
    pub fn needs_winograd_scale(&self) -> bool {
        matches!(self, Algorithm::LoWino { .. })
    }
}

impl core::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A prepared convolution executor: weights packed, workspaces allocated;
/// `execute` runs the layer on a batch and reports per-stage timings.
pub trait ConvExecutor {
    /// The layer specification this executor was planned for.
    fn spec(&self) -> &ConvShape;

    /// Which algorithm this executor implements.
    fn algorithm(&self) -> Algorithm;

    /// Run the convolution. `input` must match the spec's `(B, C, H, W)`;
    /// `output` must be pre-allocated as `(B, K, H', W')`.
    ///
    /// Every failure is recoverable: mismatched tensors and rejected
    /// non-finite inputs ([`ExecError::IoShape`] /
    /// [`ExecError::NonFiniteInput`]) are detected before any work starts,
    /// and a panic inside the fork-join surfaces as
    /// [`ExecError::WorkerPanic`] with the pool, scratch and executor all
    /// still usable (the output buffer contents are then unspecified).
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError>;

    /// [`Self::execute`] with [`ConvPostOps`] applied to the output.
    ///
    /// The default implementation runs the plain convolution and then
    /// [`apply_post_ops`] as a separate pass; executors with fused
    /// epilogues (every Winograd scheme: the phase-③ row pass) override this
    /// to apply the post-ops in-register before the output store. Both must meet
    /// the bitwise contract documented on [`ConvPostOps`], so the
    /// `ResilientConv` demotion ladder can swap implementations freely.
    fn execute_post(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        let timings = self.execute(input, output, ctx)?;
        apply_post_ops(output, post);
        Ok(timings)
    }

    /// Post-execute numeric-health signal: `(saturated, total)` counts of
    /// quantized intermediate values from the last `execute`, if this
    /// algorithm quantizes. `None` for full-precision executors.
    ///
    /// A high saturated/total ratio means the calibrated scales no longer
    /// fit the live data distribution — the signal `ResilientConv` uses to
    /// demote to a higher-precision algorithm.
    fn saturation(&self) -> Option<(u64, u64)> {
        None
    }

    /// The stage-② GEMM this executor runs, when it is GEMM-backed and open
    /// to tuner seeding — as the u8×i8 problem of the same words
    /// ([`lowino_gemm::GemmShape::as_u8i8`]: `c` is `2C` for the INT16
    /// baseline, `4C` for the FP32 one), the shape a blocking is resolved
    /// on. `None` (the default) means "nothing to seed" — true for
    /// `DirectF32Conv` and for `DownScaleConv`, whose blocking deliberately
    /// models oneDNN's partition design.
    fn gemm_shape(&self) -> Option<lowino_gemm::GemmShape> {
        None
    }

    /// Install a blocking for the stage-② GEMM — what planners do with
    /// [`ConvContext::seed_blocking`]'s answer; an executor that never gets
    /// one resolves the same seed on its first execute. Executors that
    /// report a shape from [`Self::gemm_shape`] accept it; everyone else
    /// ignores it.
    fn set_blocking(&mut self, _b: lowino_gemm::Blocking) {}
}

/// The blocking a GEMM-backed executor runs `shape` with: the one it was
/// given (`set_blocking`) or has already resolved, else the context's seed
/// ([`ConvContext::seed_blocking`]) — resolved by this execute, once, and
/// kept in the executor's slot for every later one.
pub(crate) fn resolve_blocking(
    slot: &mut Option<lowino_gemm::Blocking>,
    shape: &lowino_gemm::GemmShape,
    ctx: &ConvContext,
) -> lowino_gemm::Blocking {
    *slot.get_or_insert_with(|| ctx.seed_blocking(shape))
}

/// Shared input/output validation for all executors: dimension check plus
/// the context's non-finite input policy.
pub(crate) fn check_io(
    spec: &ConvShape,
    input: &BlockedImage,
    output: &BlockedImage,
    policy: NonFinitePolicy,
) -> Result<(), ExecError> {
    let expected_in = (spec.batch, spec.in_c, spec.h, spec.w);
    if input.dims() != expected_in {
        return Err(ExecError::IoShape {
            which: "input",
            expected: expected_in,
            got: input.dims(),
        });
    }
    let expected_out = (spec.batch, spec.out_c, spec.out_h(), spec.out_w());
    if output.dims() != expected_out {
        return Err(ExecError::IoShape {
            which: "output",
            expected: expected_out,
            got: output.dims(),
        });
    }
    if policy == NonFinitePolicy::Reject {
        let count = input.data().iter().filter(|v| !v.is_finite()).count() as u64;
        if count > 0 {
            return Err(ExecError::NonFiniteInput { count });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_blocking_fills_an_empty_slot_once_and_keeps_a_given_one() {
        let shape = lowino_gemm::GemmShape { t: 16, n: 100, c: 32, k: 64 };
        let given = lowino_gemm::Blocking { n_blk: 4, c_blk: 16, k_blk: 64, row_blk: 2, col_blk: 1 };
        let mut ctx = ConvContext::new(1);
        let mut slot = None;
        let seed = resolve_blocking(&mut slot, &shape, &ctx);
        assert_eq!((seed, slot), (ctx.seed_blocking(&shape), Some(seed)));
        // Resolved means kept: wisdom that arrives later does not move it.
        ctx.wisdom.insert(ctx.tier, &shape, given);
        assert_eq!(resolve_blocking(&mut slot, &shape, &ctx), seed);
        // `set_blocking` overwrites the slot; the next execute reads that.
        slot = Some(given);
        assert_eq!(resolve_blocking(&mut slot, &shape, &ctx), given);
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::DirectF32.name(), "direct-f32");
        assert_eq!(Algorithm::LoWino { m: 4 }.tile_m(), Some(4));
        assert_eq!(Algorithm::DirectInt8.tile_m(), None);
        assert!(Algorithm::DownScale { m: 2 }.needs_spatial_scale());
        assert!(!Algorithm::DownScale { m: 2 }.needs_winograd_scale());
        assert!(Algorithm::LoWino { m: 2 }.needs_winograd_scale());
        assert!(!Algorithm::DirectF32.needs_spatial_scale());
        assert_eq!(format!("{}", Algorithm::UpCast { m: 2 }), "upcast F(2x2,3x3)");
    }
}
