//! The user-facing engine and layer builder.
//!
//! [`Engine`] owns the shared execution resources (thread pool, SIMD tier,
//! wisdom); [`LayerBuilder`] plans one convolution layer — choosing the
//! algorithm (explicitly or via the cost model), running whatever
//! calibration the chosen scheme needs, packing the filters, and allocating
//! workspaces — into a reusable [`Layer`].

use std::path::PathBuf;

use lowino_conv::{
    calibrate_spatial, calibrate_winograd_domain, Algorithm, ConvContext, ConvError,
    ConvExecutor, DirectF32Conv, DirectInt8Conv, DownScaleConv, ExecError, LoWinoConv,
    StageTimings, UpCastConv, WinogradF32Conv,
};
use lowino_conv::calibrate::calibrate_winograd_domain_per_position;
use lowino_gemm::Wisdom;
use lowino_quant::QParams;
use lowino_simd::SimdTier;
use lowino_tensor::{BlockedImage, ConvShape, Tensor4};

use crate::select::select_algorithm;

/// How the builder picks the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Use the §7 cost model ([`crate::select::select_algorithm`]).
    Auto,
    /// Use exactly this algorithm.
    Fixed(Algorithm),
}

/// Shared execution engine.
pub struct Engine {
    ctx: ConvContext,
}

impl Engine {
    /// An engine with `threads` execution slots on the best SIMD tier.
    pub fn new(threads: usize) -> Self {
        Self {
            ctx: ConvContext::new(threads),
        }
    }

    /// An engine pinned to a SIMD tier (ablation benches).
    pub fn with_tier(threads: usize, tier: lowino_simd::SimdTier) -> Self {
        Self {
            ctx: ConvContext::with_tier(threads, tier),
        }
    }

    /// Start configuring an engine explicitly: tier, wisdom file.
    pub fn builder(threads: usize) -> EngineBuilder {
        EngineBuilder {
            threads,
            tier: None,
            wisdom_path: None,
        }
    }

    /// The underlying context (advanced use: wisdom, tier inspection).
    pub fn context_mut(&mut self) -> &mut ConvContext {
        &mut self.ctx
    }

    /// The underlying context, read-only (tuner seeding, tier queries).
    pub fn context(&self) -> &ConvContext {
        &self.ctx
    }

    /// Persist this engine's accumulated wisdom into `path` via the
    /// crash-safe merge-save (read-merge, tmp file, fsync, rename — the
    /// `wisdom/save` fault site). What a serving shard calls at shutdown
    /// so tuned blockings survive restarts; safe to call concurrently
    /// from engines sharing one file.
    pub fn save_wisdom(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        self.ctx.wisdom.merge_save(path.as_ref())
    }

    /// Allocate a correctly-shaped blocked output for a layer spec.
    pub fn alloc_output(&self, spec: &ConvShape) -> BlockedImage {
        BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w())
    }

    /// Run a planned layer. Every failure is recoverable ([`ExecError`]):
    /// the engine and the layer both remain usable afterwards.
    pub fn execute(
        &mut self,
        layer: &mut Layer,
        input: &BlockedImage,
        output: &mut BlockedImage,
    ) -> Result<StageTimings, ExecError> {
        layer.exec.execute(input, output, &mut self.ctx)
    }
}

/// Configures an [`Engine`] with an explicit tier and wisdom file.
///
/// ```no_run
/// # use lowino::{Engine, SimdTier};
/// let engine = Engine::builder(4)
///     .tier(SimdTier::Avx2)
///     .wisdom_path("model.wisdom")
///     .build();
/// ```
pub struct EngineBuilder {
    threads: usize,
    tier: Option<SimdTier>,
    wisdom_path: Option<PathBuf>,
}

impl EngineBuilder {
    /// Pin the SIMD tier (default: [`SimdTier::detect`]).
    pub fn tier(mut self, tier: SimdTier) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Wisdom file to seed blockings from (default: `LOWINO_WISDOM` if
    /// set). Unreadable files degrade to empty wisdom.
    pub fn wisdom_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.wisdom_path = Some(path.into());
        self
    }

    /// Construct the engine.
    pub fn build(self) -> Engine {
        let tier = self.tier.unwrap_or_else(SimdTier::detect);
        let mut ctx = ConvContext::with_tier(self.threads, tier);
        if let Some(path) = self.wisdom_path {
            ctx.wisdom = Wisdom::load(&path).unwrap_or_default();
        }
        Engine { ctx }
    }
}

/// A planned, reusable convolution layer.
pub struct Layer {
    exec: Box<dyn ConvExecutor + Send>,
}

impl Layer {
    /// The algorithm that was planned.
    pub fn algorithm(&self) -> Algorithm {
        self.exec.algorithm()
    }

    /// The layer spec.
    pub fn spec(&self) -> &ConvShape {
        self.exec.spec()
    }

    /// Borrow the underlying executor.
    pub fn executor_mut(&mut self) -> &mut (dyn ConvExecutor + Send) {
        &mut *self.exec
    }
}

/// Builder for a [`Layer`].
pub struct LayerBuilder<'w> {
    spec: ConvShape,
    weights: &'w Tensor4,
    algo: AlgoChoice,
    samples: Vec<BlockedImage>,
    input_scale: Option<QParams>,
    per_position: bool,
}

impl<'w> LayerBuilder<'w> {
    /// Start planning a layer with `K×C×r×r` weights.
    pub fn new(spec: ConvShape, weights: &'w Tensor4) -> Self {
        Self {
            spec,
            weights,
            algo: AlgoChoice::Auto,
            samples: Vec::new(),
            input_scale: None,
            per_position: false,
        }
    }

    /// Choose the algorithm (default: [`AlgoChoice::Auto`]).
    pub fn algorithm(mut self, algo: AlgoChoice) -> Self {
        self.algo = algo;
        self
    }

    /// Provide unlabelled activation samples for calibration (paper §3:
    /// "~500s of unlabelled sample images"). Required by every quantized
    /// algorithm unless [`input_scale`](Self::input_scale) is given.
    pub fn calibration_samples(mut self, samples: Vec<BlockedImage>) -> Self {
        self.samples = samples;
        self
    }

    /// Skip calibration and use an explicit input scale.
    pub fn input_scale(mut self, scale: QParams) -> Self {
        self.input_scale = Some(scale);
        self
    }

    /// Use per-tile-position scale granularity for LoWino (the extension
    /// that enables `F(6×6)`; requires calibration samples).
    pub fn per_position_scales(mut self, on: bool) -> Self {
        self.per_position = on;
        self
    }

    /// Plan the layer. GEMM-backed executors get their stage-② blocking
    /// from [`ConvContext::seed_blocking`] (exact wisdom → shape-class
    /// wisdom → cost model) — a first execute never stalls on a measurement
    /// sweep.
    pub fn build(self, engine: &Engine) -> Result<Layer, ConvError> {
        let spec = self.spec.validate()?;
        let algo = match self.algo {
            AlgoChoice::Fixed(a) => a,
            AlgoChoice::Auto => select_algorithm(&spec),
        };
        let mut exec =
            plan_executor(&spec, self.weights, algo, &self.samples, self.input_scale, self.per_position)?;
        if let Some(shape) = exec.gemm_shape() {
            exec.set_blocking(engine.ctx.seed_blocking(&shape));
        }
        Ok(Layer { exec })
    }
}

/// The one "algorithm → executor" step, shared by [`LayerBuilder::build`]
/// and the [`crate::ResilientConv`] ladder: calibrate what `algo` needs —
/// from `samples`, unless an explicit `input_scale` stands in — and box its
/// executor. `per_position` asks LoWino for one scale per tile position,
/// which only samples can provide (the calibrator rejects an empty set).
pub(crate) fn plan_executor(
    spec: &ConvShape,
    weights: &Tensor4,
    algo: Algorithm,
    samples: &[BlockedImage],
    input_scale: Option<QParams>,
    per_position: bool,
) -> Result<Box<dyn ConvExecutor + Send>, ConvError> {
    let calibrated = algo.needs_spatial_scale() || algo.needs_winograd_scale();
    if calibrated && input_scale.is_none() && samples.is_empty() {
        return Err(ConvError::Calibration(format!(
            "{algo} needs calibration samples (or an explicit input_scale)"
        )));
    }
    let spec = *spec;
    let spatial = || input_scale.map_or_else(|| calibrate_spatial(samples), Ok);
    Ok(match algo {
        Algorithm::DirectF32 => Box::new(DirectF32Conv::new(spec, weights)?),
        Algorithm::WinogradF32 { m } => Box::new(WinogradF32Conv::new(spec, m, weights)?),
        Algorithm::DirectInt8 => Box::new(DirectInt8Conv::new(spec, weights, spatial()?)?),
        Algorithm::DownScale { m } => Box::new(DownScaleConv::new(spec, m, weights, spatial()?)?),
        Algorithm::UpCast { m } => Box::new(UpCastConv::new(spec, m, weights, spatial()?)?),
        Algorithm::LoWino { m } if per_position => {
            let scales = calibrate_winograd_domain_per_position(&spec, m, samples)?;
            Box::new(LoWinoConv::new_per_position(spec, m, weights, &scales)?)
        }
        Algorithm::LoWino { m } => {
            let scale = match input_scale {
                Some(s) => s,
                None => calibrate_winograd_domain(&spec, m, samples)?,
            };
            Box::new(LoWinoConv::new(spec, m, weights, scale)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_tensor::Tensor4;

    fn setup() -> (ConvShape, Tensor4, BlockedImage) {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let w = Tensor4::from_fn(8, 8, 3, 3, |k, c, y, x| {
            ((k + c + y + x) as f32 * 0.3).sin() * 0.2
        });
        let input = Tensor4::from_fn(1, 8, 8, 8, |_, c, y, x| ((c + y + x) as f32 * 0.5).cos());
        (spec, w, BlockedImage::from_nchw(&input))
    }

    #[test]
    fn all_fixed_algorithms_build_and_run() {
        let (spec, w, img) = setup();
        let mut engine = Engine::new(1);
        for algo in [
            Algorithm::DirectF32,
            Algorithm::DirectInt8,
            Algorithm::WinogradF32 { m: 2 },
            Algorithm::LoWino { m: 2 },
            Algorithm::LoWino { m: 4 },
            Algorithm::DownScale { m: 2 },
            Algorithm::UpCast { m: 2 },
        ] {
            let mut layer = LayerBuilder::new(spec, &w)
                .algorithm(AlgoChoice::Fixed(algo))
                .calibration_samples(vec![img.clone()])
                .build(&engine)
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(layer.algorithm(), algo);
            assert_eq!(*layer.spec(), spec);
            let mut out = engine.alloc_output(&spec);
            let t = engine.execute(&mut layer, &img, &mut out).unwrap();
            assert!(t.total() > std::time::Duration::ZERO, "{algo}");
            assert!(out.max_abs() > 0.0, "{algo} produced all zeros");
        }
    }

    #[test]
    fn auto_selection_builds() {
        let (spec, w, img) = setup();
        let engine = Engine::new(1);
        let layer = LayerBuilder::new(spec, &w)
            .calibration_samples(vec![img])
            .build(&engine)
            .unwrap();
        // Whatever was chosen must be a quantized algorithm.
        assert!(
            layer.algorithm().needs_spatial_scale() || layer.algorithm().needs_winograd_scale()
        );
    }

    #[test]
    fn missing_calibration_is_an_error() {
        let (spec, w, _) = setup();
        let engine = Engine::new(1);
        let err = LayerBuilder::new(spec, &w)
            .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 2 }))
            .build(&engine);
        assert!(matches!(err, Err(ConvError::Calibration(_))));
        // FP32 algorithms don't need calibration.
        assert!(LayerBuilder::new(spec, &w)
            .algorithm(AlgoChoice::Fixed(Algorithm::DirectF32))
            .build(&engine)
            .is_ok());
    }

    #[test]
    fn explicit_scale_skips_calibration() {
        let (spec, w, img) = setup();
        let mut engine = Engine::new(1);
        let mut layer = LayerBuilder::new(spec, &w)
            .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 2 }))
            .input_scale(QParams::from_threshold(8.0))
            .build(&engine)
            .unwrap();
        let mut out = engine.alloc_output(&spec);
        engine.execute(&mut layer, &img, &mut out).unwrap();
        assert!(out.max_abs() > 0.0);
    }

    #[test]
    fn per_position_layer_builds() {
        let (spec, w, img) = setup();
        let mut engine = Engine::new(1);
        let mut layer = LayerBuilder::new(spec, &w)
            .algorithm(AlgoChoice::Fixed(Algorithm::LoWino { m: 4 }))
            .calibration_samples(vec![img.clone()])
            .per_position_scales(true)
            .build(&engine)
            .unwrap();
        let mut out = engine.alloc_output(&spec);
        engine.execute(&mut layer, &img, &mut out).unwrap();
        assert!(out.max_abs() > 0.0);
    }

    #[test]
    fn invalid_spec_rejected() {
        let (_, w, _) = setup();
        let engine = Engine::new(1);
        let mut spec = ConvShape::same(1, 8, 8, 8, 3);
        spec.out_c = 0;
        assert!(LayerBuilder::new(spec, &w)
            .algorithm(AlgoChoice::Fixed(Algorithm::DirectF32))
            .build(&engine)
            .is_err());
    }
}
