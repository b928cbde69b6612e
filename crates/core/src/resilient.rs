//! Graceful degradation: a convolution that survives algorithm failure.
//!
//! [`ResilientConv`] wraps the algorithm ladder
//!
//! ```text
//! LoWino{m} → UpCast{min(m,4)} → WinogradF32{m} → DirectF32
//! ```
//!
//! and *demotes* — rebuilds itself one rung down — whenever the current
//! algorithm fails to construct, fails at runtime
//! ([`ExecError::WorkerPanic`]), or passes but with unhealthy numerics
//! (quantization saturation above [`HealthPolicy::max_saturation_ratio`],
//! or non-finite output values). Each rung trades speed for sturdiness:
//! the bottom of the ladder is the full-precision direct convolution,
//! which quantizes nothing and transforms nothing.
//!
//! Demotions are sticky (the layer keeps serving from the demoted rung),
//! recorded in [`ResilientConv::demotions`], and emitted as a
//! `resilient/demote` trace instant so production traces show exactly when
//! and why a layer degraded.
//!
//! [`ResilientConv::pinned`] is the one-rung case: one algorithm, planned
//! like a rung, with nothing to demote to — what post-training
//! quantization of a whole model (paper Table 3) serves from.
//!
//! Caller errors do **not** demote: a mismatched tensor
//! ([`ExecError::IoShape`]) or a rejected non-finite input
//! ([`ExecError::NonFiniteInput`]) would fail identically on every rung,
//! so they are returned to the caller unchanged.

use lowino_conv::{
    Algorithm, ConvContext, ConvError, ConvExecutor, ConvPostOps, ExecError, StageTimings,
};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4};

use crate::builder::plan_executor;

/// When a passing execute still counts as unhealthy.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Demote when `saturated / total` of the last execute's quantized
    /// intermediates exceeds this ratio (the calibrated scales no longer
    /// fit the live data distribution). Set above 1.0 to disable.
    pub max_saturation_ratio: f64,
    /// Demote when the output contains NaN/±inf values. One linear pass
    /// over the output per execute; set `false` to disable.
    pub check_output_finite: bool,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            max_saturation_ratio: 0.25,
            check_output_finite: true,
        }
    }
}

impl HealthPolicy {
    /// The overload-brownout policy: every post-execute health scan is
    /// disabled, so an execute costs no extra passes over the output and
    /// numerics alone never trigger a demotion rebuild. A browned-out
    /// server deliberately trades the §9 quality guards for latency
    /// headroom; hard failures (worker panics, build errors) still demote.
    pub fn relaxed() -> Self {
        Self {
            max_saturation_ratio: f64::INFINITY,
            check_output_finite: false,
        }
    }
}

/// Why a demotion happened.
#[derive(Debug)]
pub enum DemotionReason {
    /// The algorithm failed to construct (calibration or planning error).
    BuildFailed(ConvError),
    /// `execute` returned a recoverable runtime error (worker panic).
    ExecFailed(ExecError),
    /// Quantization saturation exceeded the policy threshold.
    SaturationBreach {
        /// Saturated quantized values in the last execute.
        saturated: u64,
        /// Total quantized values in the last execute.
        total: u64,
    },
    /// The output contained non-finite values.
    NonFiniteOutput {
        /// Number of NaN/±inf output values found.
        count: u64,
    },
}

impl core::fmt::Display for DemotionReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DemotionReason::BuildFailed(e) => write!(f, "build failed: {e}"),
            DemotionReason::ExecFailed(e) => write!(f, "execute failed: {e}"),
            DemotionReason::SaturationBreach { saturated, total } => {
                write!(f, "saturation breach: {saturated}/{total} quantized values")
            }
            DemotionReason::NonFiniteOutput { count } => {
                write!(f, "{count} non-finite output value(s)")
            }
        }
    }
}

/// One recorded demotion step.
#[derive(Debug)]
pub struct Demotion {
    /// The algorithm that failed (or was unhealthy).
    pub from: Algorithm,
    /// The algorithm demoted to.
    pub to: Algorithm,
    /// Why.
    pub reason: DemotionReason,
}

/// A self-healing convolution layer: executes on the fastest algorithm
/// that is currently healthy, demoting down the ladder on failure.
pub struct ResilientConv {
    spec: ConvShape,
    weights: Tensor4,
    samples: Vec<BlockedImage>,
    policy: HealthPolicy,
    /// Rungs not yet tried, in demotion order.
    remaining: Vec<Algorithm>,
    exec: Box<dyn ConvExecutor + Send>,
    demotions: Vec<Demotion>,
}

impl ResilientConv {
    /// Plan a resilient layer with the default [`HealthPolicy`].
    /// `samples` calibrate the quantized rungs (LoWino in the Winograd
    /// domain, up-casting in the spatial domain).
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        samples: Vec<BlockedImage>,
    ) -> Result<Self, ConvError> {
        Self::with_policy(spec, m, weights, samples, HealthPolicy::default())
    }

    /// [`Self::new`] with an explicit health policy.
    pub fn with_policy(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        samples: Vec<BlockedImage>,
        policy: HealthPolicy,
    ) -> Result<Self, ConvError> {
        let ladder = vec![
            Algorithm::LoWino { m },
            // Up-casting is the sturdiest quantized scheme (INT16
            // intermediates), but its integer transform overflows above
            // F(4×4) — clamp the tile.
            Algorithm::UpCast { m: m.min(4) },
            Algorithm::WinogradF32 { m },
            Algorithm::DirectF32,
        ];
        Self::plan(spec, ladder, false, weights, samples, policy)
    }

    /// A layer pinned to `algo`: exactly one executor, planned like a
    /// ladder rung (`per_position` asks LoWino for one scale per tile
    /// position). With nowhere to demote to it runs no health scans
    /// ([`HealthPolicy::relaxed`]), keeps no copy of the weights or
    /// samples, and returns a construction failure unchanged.
    pub fn pinned(
        spec: ConvShape,
        algo: Algorithm,
        per_position: bool,
        weights: &Tensor4,
        samples: Vec<BlockedImage>,
    ) -> Result<Self, ConvError> {
        Self::plan(spec, vec![algo], per_position, weights, samples, HealthPolicy::relaxed())
    }

    /// Serve from the first rung of `remaining` that builds; the weights
    /// and samples are kept only while a rung is left to rebuild from them.
    fn plan(
        spec: ConvShape,
        mut remaining: Vec<Algorithm>,
        per_position: bool,
        weights: &Tensor4,
        samples: Vec<BlockedImage>,
        policy: HealthPolicy,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let mut demotions = Vec::new();
        let mut pending: Option<(Algorithm, ConvError)> = None;
        let mut exec = None;
        while !remaining.is_empty() {
            let algo = remaining.remove(0);
            let attempt = plan_executor(&spec, weights, algo, &samples, None, per_position);
            if let Some((from, err)) = pending.take() {
                lowino_trace::instant("resilient/demote", demotions.len() as u64);
                demotions.push(Demotion {
                    from,
                    to: algo,
                    reason: DemotionReason::BuildFailed(err),
                });
            }
            match attempt {
                Ok(e) => {
                    exec = Some(e);
                    break;
                }
                Err(err) => pending = Some((algo, err)),
            }
        }
        let Some(exec) = exec else {
            // Even the last rung failed: nothing to serve from.
            return Err(pending.expect("ladder was non-empty").1);
        };
        let (weights, samples) = if remaining.is_empty() {
            (Tensor4::zeros(0, 0, 0, 0), Vec::new())
        } else {
            (weights.clone(), samples)
        };
        Ok(Self {
            spec,
            weights,
            samples,
            policy,
            remaining,
            exec,
            demotions,
        })
    }

    /// The algorithm currently serving this layer.
    pub fn algorithm(&self) -> Algorithm {
        self.exec.algorithm()
    }

    /// The layer spec.
    pub fn spec(&self) -> &ConvShape {
        &self.spec
    }

    /// Every demotion taken so far, oldest first.
    pub fn demotions(&self) -> &[Demotion] {
        &self.demotions
    }

    /// The active health policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Swap the health policy live — the serving brownout controller
    /// relaxes the per-execute health scans under overload and restores
    /// them when pressure clears. Takes effect from the next execute;
    /// demotions already taken stay (the ladder is sticky by design).
    pub fn set_policy(&mut self, policy: HealthPolicy) {
        self.policy = policy;
    }

    /// Seed the serving executor's GEMM blocking at plan time
    /// ([`ConvContext::seed_blocking`]: exact wisdom → shape class → cost
    /// model; never a measurement). An executor that is never seeded — this
    /// one when the call is skipped, or a rung rebuilt by a demotion —
    /// resolves the same seed on its first execute.
    pub fn seed_blocking(&mut self, ctx: &ConvContext) {
        if let Some(shape) = self.exec.gemm_shape() {
            self.exec.set_blocking(ctx.seed_blocking(&shape));
        }
    }

    /// Run the layer, demoting down the ladder until a rung produces a
    /// healthy result. Errs only when the chain is exhausted (every rung
    /// including direct-f32 failed) or on a caller error (shape mismatch /
    /// rejected non-finite input), which no demotion can fix.
    pub fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ConvError> {
        self.execute_post(input, output, &ConvPostOps::default(), ctx)
    }

    /// [`Self::execute`] with [`ConvPostOps`] (bias / residual-add / ReLU)
    /// applied to the output — the graph engine's entry point. The post-op
    /// contract is part of [`ConvExecutor`], so every rung of the ladder
    /// honours it: a demoted layer produces the same post-processed output
    /// (modulo the rung's own numerics) and the demotion logic is shared
    /// unchanged.
    pub fn execute_post(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        post: &ConvPostOps<'_>,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ConvError> {
        loop {
            match self.exec.execute_post(input, output, post, ctx) {
                Ok(times) => {
                    let Some(reason) = self.health_breach(output) else {
                        return Ok(times);
                    };
                    self.demote(reason)?;
                }
                Err(err @ ExecError::WorkerPanic { .. }) => {
                    self.demote(DemotionReason::ExecFailed(err))?;
                }
                // Caller errors: every rung would reject them identically.
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Post-execute health check against the policy.
    fn health_breach(&self, output: &BlockedImage) -> Option<DemotionReason> {
        if let Some((saturated, total)) = self.exec.saturation() {
            if total > 0 && saturated as f64 > self.policy.max_saturation_ratio * total as f64 {
                return Some(DemotionReason::SaturationBreach { saturated, total });
            }
        }
        if self.policy.check_output_finite {
            let count = output.data().iter().filter(|v| !v.is_finite()).count() as u64;
            if count > 0 {
                return Some(DemotionReason::NonFiniteOutput { count });
            }
        }
        None
    }

    /// Move down the ladder, skipping rungs that fail to build.
    fn demote(&mut self, reason: DemotionReason) -> Result<(), ConvError> {
        let mut from = self.exec.algorithm();
        let mut reason = reason;
        loop {
            if self.remaining.is_empty() {
                return Err(ConvError::Unsupported(format!(
                    "resilient fallback chain exhausted: {from} failed ({reason}) with no \
                     sturdier algorithm left"
                )));
            }
            let next = self.remaining.remove(0);
            let attempt = plan_executor(&self.spec, &self.weights, next, &self.samples, None, false);
            lowino_trace::instant("resilient/demote", self.demotions.len() as u64);
            match attempt {
                Ok(exec) => {
                    self.demotions.push(Demotion { from, to: next, reason });
                    self.exec = exec;
                    return Ok(());
                }
                Err(err) => {
                    self.demotions.push(Demotion { from, to: next, reason });
                    from = next;
                    reason = DemotionReason::BuildFailed(err);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_conv::DirectF32Conv;

    fn setup(scale: f32) -> (ConvShape, Tensor4, BlockedImage) {
        let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
        let w = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
            ((k + c + y + x) as f32 * 0.3).sin() * 0.2 * scale
        });
        let input = Tensor4::from_fn(1, 8, 10, 10, |_, c, y, x| {
            ((c * 5 + y * 3 + x) as f32 * 0.17).cos() * scale
        });
        (spec, w, BlockedImage::from_nchw(&input))
    }

    #[test]
    fn healthy_layer_serves_lowino_with_no_demotions() {
        let (spec, w, img) = setup(1.0);
        let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
        assert_eq!(conv.algorithm(), Algorithm::LoWino { m: 4 });
        let mut ctx = ConvContext::new(2);
        let mut out = BlockedImage::zeros(1, 8, 10, 10);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        assert!(conv.demotions().is_empty());
        assert!(out.max_abs() > 0.0);
    }

    /// `tune/seeded` instants the calling thread emits while `f` runs. The
    /// recorder is process-global and sibling tests seed blockings too, so
    /// only this thread's ring counts — the one carrying the marker.
    fn seeded_by_this_thread(f: impl FnOnce()) -> usize {
        let is_mark = |e: &lowino_trace::ring::Event| e.name == "test/mark";
        lowino_trace::set_enabled(true);
        lowino_trace::instant("test/mark", 0);
        f();
        let threads = lowino_trace::drain();
        lowino_trace::set_enabled(false);
        let mine = threads
            .iter()
            .find(|t| t.events.iter().any(is_mark))
            .expect("this thread's marker was recorded");
        let after = mine.events.iter().rposition(is_mark).expect("marker");
        mine.events[after..].iter().filter(|e| e.name == "tune/seeded").count()
    }

    #[test]
    fn blocking_is_resolved_once_at_plan_time_or_else_by_the_first_execute() {
        let (spec, w, img) = setup(1.0);
        let mut ctx = ConvContext::new(2);
        // F(4,3) serves LoWino; F(9,3) has no generated transform, so the
        // layer demotes to the up-casting rung while it is built — whose
        // INT16 GEMM runs the same driver and is seeded the same way.
        for (m, serving) in [(4, Algorithm::LoWino { m: 4 }), (9, Algorithm::UpCast { m: 4 })] {
            let mut outs = Vec::new();
            for seed_at_plan_time in [false, true] {
                let mut conv = ResilientConv::new(spec, m, &w, vec![img.clone()]).unwrap();
                let demoted = conv.demotions().len();
                let mut out = BlockedImage::zeros(1, 8, 10, 10);
                let planned = seeded_by_this_thread(|| {
                    if seed_at_plan_time {
                        conv.seed_blocking(&ctx);
                    }
                });
                let first = seeded_by_this_thread(|| {
                    conv.execute(&img, &mut out, &mut ctx).unwrap();
                });
                let second = seeded_by_this_thread(|| {
                    conv.execute(&img, &mut out, &mut ctx).unwrap();
                });
                let (p, f) = if seed_at_plan_time { (1, 0) } else { (0, 1) };
                assert_eq!(
                    (planned, first, second),
                    (p, f, 0),
                    "{serving} seed_at_plan_time={seed_at_plan_time}"
                );
                assert_eq!((conv.algorithm(), conv.demotions().len()), (serving, demoted));
                outs.push(out);
            }
            assert!(
                outs[0].data() == outs[1].data(),
                "{serving}: when the blocking was resolved moved the output"
            );
        }
    }

    #[test]
    fn unsupported_tile_demotes_at_construction() {
        // F(9,3) has no generated transform: LoWino fails to build,
        // up-cast clamps the tile to 4 and serves.
        let (spec, w, img) = setup(1.0);
        let conv = ResilientConv::new(spec, 9, &w, vec![img]).unwrap();
        assert_eq!(conv.algorithm(), Algorithm::UpCast { m: 4 });
        assert_eq!(conv.demotions().len(), 1);
        let d = &conv.demotions()[0];
        assert_eq!(d.from, Algorithm::LoWino { m: 9 });
        assert_eq!(d.to, Algorithm::UpCast { m: 4 });
        assert!(matches!(d.reason, DemotionReason::BuildFailed(_)));
    }

    #[test]
    fn saturation_breach_demotes_to_full_precision() {
        // Calibrate on a quiet sample, then execute a 1000× louder input:
        // nearly every quantized value clips, so both quantized rungs
        // breach the saturation policy and the layer settles on a
        // full-precision algorithm that handles the range fine.
        let (spec, w, quiet) = setup(1.0);
        let loud = {
            let t = Tensor4::from_fn(1, 8, 10, 10, |_, c, y, x| {
                ((c * 5 + y * 3 + x) as f32 * 0.17).cos() * 1000.0
            });
            BlockedImage::from_nchw(&t)
        };
        let mut conv = ResilientConv::new(spec, 4, &w, vec![quiet]).unwrap();
        let mut ctx = ConvContext::new(1);
        let mut out = BlockedImage::zeros(1, 8, 10, 10);
        conv.execute(&loud, &mut out, &mut ctx).unwrap();
        assert!(
            !conv.algorithm().needs_spatial_scale()
                && !conv.algorithm().needs_winograd_scale(),
            "must settle on a full-precision rung, got {}",
            conv.algorithm()
        );
        assert!(conv
            .demotions()
            .iter()
            .any(|d| matches!(d.reason, DemotionReason::SaturationBreach { .. })));
        // And the served output is the real convolution.
        let mut reference = DirectF32Conv::new(spec, &w).unwrap();
        let mut want = BlockedImage::zeros(1, 8, 10, 10);
        reference.execute(&loud, &mut want, &mut ctx).unwrap();
        let err = out.to_nchw().rel_l2_error(&want.to_nchw());
        assert!(err < 1e-3, "rel error {err}");
    }

    #[test]
    fn non_finite_output_exhausts_chain_with_an_error() {
        // 1e30-magnitude inputs and weights overflow f32 in every rung's
        // arithmetic (1e30 · 1e30 > f32::MAX), so each passing execute
        // breaches the output-finiteness check until the chain runs dry.
        let (spec, _, _) = setup(1.0);
        let w = Tensor4::from_fn(8, 8, 3, 3, |_, _, _, _| 1e30);
        let huge = {
            let t = Tensor4::from_fn(1, 8, 10, 10, |_, _, _, _| 1e30);
            BlockedImage::from_nchw(&t)
        };
        let mut conv = ResilientConv::new(spec, 4, &w, vec![huge.clone()]).unwrap();
        let mut ctx = ConvContext::new(1);
        let mut out = BlockedImage::zeros(1, 8, 10, 10);
        let err = conv.execute(&huge, &mut out, &mut ctx).unwrap_err();
        assert!(matches!(err, ConvError::Unsupported(_)), "{err:?}");
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert_eq!(conv.demotions().len(), 3, "one demotion per rung");
        assert!(conv
            .demotions()
            .iter()
            .any(|d| matches!(d.reason, DemotionReason::NonFiniteOutput { .. })));
    }

    #[test]
    fn pinned_layer_serves_one_algorithm_and_returns_its_build_error_unchanged() {
        let (spec, w, img) = setup(1.0);
        let mut conv =
            ResilientConv::pinned(spec, Algorithm::LoWino { m: 4 }, true, &w, vec![img.clone()])
                .unwrap();
        assert_eq!(conv.algorithm(), Algorithm::LoWino { m: 4 });
        assert_eq!(conv.policy().max_saturation_ratio, f64::INFINITY);
        assert!(!conv.policy().check_output_finite);
        let mut ctx = ConvContext::new(1);
        let mut out = BlockedImage::zeros(1, 8, 10, 10);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        assert!(conv.demotions().is_empty());
        assert!(out.max_abs() > 0.0);

        // F(9,3) has no generated transform: the ladder would demote, a
        // pinned layer fails with exactly the planner's error.
        let algo = Algorithm::LoWino { m: 9 };
        let want = plan_executor(&spec, &w, algo, std::slice::from_ref(&img), None, false)
            .err()
            .unwrap();
        let got = ResilientConv::pinned(spec, algo, false, &w, vec![img]).err().unwrap();
        assert_eq!(got.to_string(), want.to_string());
    }

    #[test]
    fn caller_errors_do_not_demote() {
        let (spec, w, img) = setup(1.0);
        let mut conv = ResilientConv::new(spec, 4, &w, vec![img.clone()]).unwrap();
        let mut ctx = ConvContext::new(1);
        let mut wrong = BlockedImage::zeros(1, 8, 7, 7);
        let err = conv.execute(&img, &mut wrong, &mut ctx).unwrap_err();
        assert!(matches!(
            err,
            ConvError::Exec(ExecError::IoShape { which: "output", .. })
        ));
        assert_eq!(conv.algorithm(), Algorithm::LoWino { m: 4 });
        assert!(conv.demotions().is_empty());
    }
}
