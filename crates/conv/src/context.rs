//! Shared execution resources: thread pool, SIMD tier, wisdom, tuning.

use lowino_gemm::{
    Blocking, CacheModel, GemmShape, RetuneConfig, SeedSource, TunePolicy, TuneRuntime, Wisdom,
};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

use crate::scratch::ScratchArena;

/// What `execute` does when the input tensor contains NaN/±inf values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonFinitePolicy {
    /// Don't look: non-finite values flow through the kernels (quantization
    /// maps them to clamped integers; f32 paths propagate them). Zero
    /// per-execute scan cost — the default, preserving the zero-overhead
    /// steady state.
    #[default]
    Propagate,
    /// Scan the input up front and fail with
    /// [`ExecError::NonFiniteInput`](crate::ExecError::NonFiniteInput)
    /// before any work starts. One linear pass over the input per execute.
    Reject,
}

/// Execution context shared across layers: the static-scheduling thread
/// pool (paper §4.4), the detected SIMD tier, the auto-tuning wisdom
/// (§4.3.4), the Autotuner 2.0 runtime (seeding policy, published retune
/// table, optional background retuner), and the persistent per-worker
/// scratch arena the executors' phase bodies draw their working buffers
/// from.
pub struct ConvContext {
    /// Fork-join pool; worker count fixed at construction.
    pub pool: StaticPool,
    /// Instruction tier all kernels run on.
    pub tier: SimdTier,
    /// Tuned GEMM blockings.
    pub wisdom: Wisdom,
    /// One scratch slot per pool worker, reused across stages and layers.
    pub scratch: ScratchArena,
    /// How `execute` treats NaN/±inf input values.
    pub non_finite: NonFinitePolicy,
    /// Autotuner 2.0: seeding policy + published-winner table + retuner.
    pub tune: TuneRuntime,
    /// Per-core cache capacities of the host ([`CacheModel::detect`]) — the
    /// machine description `LoWinoConv` picks its schedule from.
    pub cache: CacheModel,
}

impl ConvContext {
    /// Context with `threads` execution slots and the best available tier.
    /// Tuning policy comes from `LOWINO_RETUNE` (default: seed-only, no
    /// thread) and wisdom from `LOWINO_WISDOM` (unreadable files degrade
    /// to empty wisdom). The retuner thread is *not* spawned here even
    /// under `background` — use [`Self::with_tuning`] or
    /// `Engine::builder` for that.
    pub fn new(threads: usize) -> Self {
        Self::with_tier(threads, SimdTier::detect())
    }

    /// Context pinned to a specific tier (ablation benches). Same env
    /// wiring as [`Self::new`].
    pub fn with_tier(threads: usize, tier: SimdTier) -> Self {
        let wisdom = match std::env::var("LOWINO_WISDOM") {
            Ok(path) => Wisdom::load(std::path::Path::new(&path)).unwrap_or_default(),
            Err(_) => Wisdom::new(),
        };
        Self::with_tuning(threads, tier, TunePolicy::from_env(), wisdom, None)
    }

    /// Fully explicit construction: tuning policy, wisdom, and (when the
    /// policy is [`TunePolicy::Background`] and `retune` is `Some`) a
    /// background retuner spawned with the given config. Passing `retune:
    /// None` under `Background` gives the policy's lookup/hotness
    /// behaviour without a thread — useful for tests that publish into
    /// the table by hand.
    pub fn with_tuning(
        threads: usize,
        tier: SimdTier,
        policy: TunePolicy,
        wisdom: Wisdom,
        retune: Option<RetuneConfig>,
    ) -> Self {
        let mut tune = TuneRuntime::new(policy);
        if policy == TunePolicy::Background {
            if let Some(cfg) = retune {
                tune.start_retuner(cfg, wisdom.clone());
            }
        }
        Self {
            pool: StaticPool::new(threads),
            tier,
            wisdom,
            scratch: ScratchArena::new(threads),
            non_finite: NonFinitePolicy::default(),
            tune,
            cache: CacheModel::detect(),
        }
    }

    /// Number of execution slots.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Resolve the blocking an executor should run `shape` with, in
    /// priority order: published retune winner → compile-time/manual
    /// override → wisdom/cost-model seed (or the static default when the
    /// policy is [`TunePolicy::Off`]). Steady-state allocation-free; never
    /// measures.
    pub fn gemm_blocking(&self, shape: &GemmShape, override_: Option<Blocking>) -> Blocking {
        if let Some(published) = self.tune.lookup(self.tier, shape) {
            return published;
        }
        if let Some(b) = override_ {
            return b;
        }
        match self.tune.policy() {
            TunePolicy::Off => self.wisdom.blocking_or_default(self.tier, shape),
            _ => self.wisdom.blocking_for(self.tier, shape).0,
        }
    }

    /// The compile-time seed for `shape`: exact wisdom → shape-class
    /// wisdom → cost-model argmin (never a measurement). Emits one
    /// `tune/seeded` instant whose payload encodes the [`SeedSource`].
    /// Under [`TunePolicy::Off`] only exact wisdom or the static default
    /// are used (pre-autotuner behaviour).
    pub fn seed_blocking(&self, shape: &GemmShape) -> Blocking {
        let (blocking, src) = match self.tune.policy() {
            TunePolicy::Off => match self.wisdom.get(self.tier, shape) {
                Some(b) => (b, SeedSource::Exact),
                None => (Blocking::default_for(shape), SeedSource::Default),
            },
            _ => self.wisdom.blocking_for(self.tier, shape),
        };
        lowino_trace::instant("tune/seeded", src.as_u64());
        blocking
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let ctx = ConvContext::new(2);
        assert_eq!(ctx.threads(), 2);
        assert_eq!(ctx.scratch.workers(), 2);
        assert_eq!(ctx.tier, SimdTier::detect());
        assert_eq!(ctx.cache, CacheModel::detect());
        let ctx = ConvContext::with_tier(1, SimdTier::Scalar);
        assert_eq!(ctx.tier, SimdTier::Scalar);
        assert!(ctx.wisdom.is_empty());
        assert!(!ctx.tune.is_retuning());
    }

    #[test]
    fn blocking_resolution_order() {
        let shape = GemmShape { t: 4, n: 100, c: 32, k: 64 };
        let override_b = Blocking { n_blk: 50, c_blk: 32, k_blk: 64, row_blk: 4, col_blk: 2 };
        let published = Blocking { n_blk: 25, c_blk: 32, k_blk: 64, row_blk: 2, col_blk: 2 };

        let mut ctx = ConvContext::with_tuning(
            1,
            SimdTier::Scalar,
            TunePolicy::SeedOnly,
            Wisdom::new(),
            None,
        );
        // No override, empty wisdom: cost-model seed, still valid.
        assert!(ctx.gemm_blocking(&shape, None).validate().is_ok());
        // Override beats the seed...
        assert_eq!(ctx.gemm_blocking(&shape, Some(override_b)), override_b);
        // ...but a published winner beats the override.
        ctx.tune.shared().publish(SimdTier::Scalar, &shape, published);
        assert_eq!(ctx.gemm_blocking(&shape, Some(override_b)), published);
        // Exact wisdom wins over the model when nothing is published.
        let other = GemmShape { t: 2, n: 64, c: 16, k: 64 };
        ctx.wisdom.insert(SimdTier::Scalar, &other, override_b);
        assert_eq!(ctx.gemm_blocking(&other, None), override_b);
    }

    #[test]
    fn off_policy_ignores_published_table() {
        let shape = GemmShape { t: 4, n: 100, c: 32, k: 64 };
        let published = Blocking { n_blk: 25, c_blk: 32, k_blk: 64, row_blk: 2, col_blk: 2 };
        let ctx = ConvContext::with_tuning(
            1,
            SimdTier::Scalar,
            TunePolicy::Off,
            Wisdom::new(),
            None,
        );
        ctx.tune.shared().publish(SimdTier::Scalar, &shape, published);
        assert_eq!(ctx.gemm_blocking(&shape, None), Blocking::default_for(&shape));
        assert_eq!(ctx.seed_blocking(&shape), Blocking::default_for(&shape));
    }
}
