//! Shared execution resources: thread pool, SIMD tier, wisdom, scratch.

use lowino_gemm::{Blocking, CacheModel, GemmShape, Wisdom};
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
/// (§4.3.4), and the persistent per-worker scratch arena the executors'
/// phase bodies draw their working buffers from.
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
    /// Per-core cache capacities of the host ([`CacheModel::detect`]) — the
    /// machine description `LoWinoConv` picks its schedule from.
    pub cache: CacheModel,
}

impl ConvContext {
    /// Context with `threads` execution slots and the best available tier.
    /// Wisdom comes from `LOWINO_WISDOM` (unreadable files degrade to
    /// empty wisdom).
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
        Self {
            pool: StaticPool::new(threads),
            tier,
            wisdom,
            scratch: ScratchArena::new(threads),
            non_finite: NonFinitePolicy::default(),
            cache: CacheModel::detect(),
        }
    }

    /// Number of execution slots.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The blocking for `shape` — the one place a GEMM shape becomes a
    /// blocking: exact wisdom → shape-class wisdom → cost-model argmin
    /// (never a measurement). Emits one `tune/seeded` instant whose payload
    /// is the [`lowino_gemm::SeedSource`] code. Planners call it once per
    /// executor and hand the result to `set_blocking`; an executor nobody
    /// seeded calls it on its first execute and keeps the answer.
    pub fn seed_blocking(&self, shape: &GemmShape) -> Blocking {
        let (blocking, src) = self.wisdom.blocking_for(self.tier, shape);
        lowino_trace::instant("tune/seeded", src.as_u64());
        blocking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_gemm::GemmCostModel;
    use lowino_tensor::ConvShape;

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
    }

    /// Stage ②'s shape for `F(m,3)` on a `batch × c × hw × hw` "same" layer.
    fn wino(m: usize, batch: usize, c: usize, k: usize, hw: usize) -> GemmShape {
        let geom = ConvShape::same(batch, c, k, hw, 3).tiles(m).unwrap();
        GemmShape { t: geom.t(), n: geom.total, c, k }
    }

    #[test]
    fn blocking_resolution_order() {
        let tuned = GemmShape { t: 16, n: 1000, c: 200, k: 200 };
        let neighbour = GemmShape { t: 16, n: 513, c: 129, k: 129 };
        let far = GemmShape { t: 16, n: 8192, c: 16, k: 1024 };
        let exact_b = Blocking { n_blk: 50, c_blk: 32, k_blk: 64, row_blk: 4, col_blk: 2 };
        let class_b = Blocking { n_blk: 25, c_blk: 32, k_blk: 64, row_blk: 2, col_blk: 2 };

        let mut ctx = ConvContext::with_tier(1, SimdTier::Avx2);
        // `insert` files a tuning under its shape and its class; a later
        // one for a class neighbour takes the class, not the exact entry.
        ctx.wisdom.insert(SimdTier::Avx2, &tuned, exact_b);
        ctx.wisdom.insert(SimdTier::Avx2, &neighbour, class_b);
        let model = |tier, shape: &GemmShape| GemmCostModel::new().seed(tier, shape);
        let same_class = GemmShape { n: 600, ..neighbour };
        for (what, tier, shape, want) in [
            ("exact beats class", SimdTier::Avx2, tuned, exact_b),
            ("class beats model", SimdTier::Avx2, same_class, class_b),
            ("no entry: model", SimdTier::Avx2, far, model(SimdTier::Avx2, &far)),
            ("other tier: model", SimdTier::Scalar, tuned, model(SimdTier::Scalar, &tuned)),
        ] {
            ctx.tier = tier;
            assert_eq!(ctx.seed_blocking(&shape), want, "{what}");
        }

        // With empty wisdom the resolver is the cost model's seed — on every
        // GEMM shape the six ledger workloads plan (BENCHMARK.json), so the
        // blockings the ledger runs with are the cost model's by
        // construction.
        let mut shapes = Vec::new();
        // conv_deep, conv_wide: LoWino F(4,3) on Table 2 layers.
        for (batch, c, k, hw) in [
            (2, 512, 512, 30),
            (4, 512, 512, 16),
            (16, 512, 512, 7),
            (1, 512, 512, 40),
            (1, 512, 512, 66),
            (1, 256, 512, 16),
            (16, 192, 384, 7),
            (4, 384, 384, 13),
            (1, 128, 128, 160),
            (1, 128, 128, 141),
            (1, 64, 128, 64),
            (4, 128, 128, 28),
            (4, 128, 192, 28),
        ] {
            shapes.push(wino(4, batch, c, k, hw));
        }
        // conv_baselines: DirectInt8 (one pass per filter offset).
        for (batch, c, k, hw) in [(2, 512, 512, 16), (1, 128, 256, 32), (4, 256, 256, 14)] {
            shapes.push(GemmShape { t: 9, n: batch * hw * hw, c, k });
        }
        // model_tiny / model_wide (batch 4) and serve_poisson (batch 2):
        // mini_vgg + mini_resnet at F(2,3), stem 3 → width, then width →
        // width at each pooled size.
        for (batch, width, hw) in [(4, 8, 8), (4, 128, 32), (2, 8, 8)] {
            shapes.push(wino(2, batch, 3, width, hw));
            for pooled in [hw, hw / 2, hw / 4] {
                shapes.push(wino(2, batch, width, width, pooled));
            }
        }
        for tier in SimdTier::available() {
            let ctx = ConvContext::with_tier(1, tier);
            assert!(ctx.wisdom.is_empty());
            for shape in &shapes {
                assert_eq!(ctx.seed_blocking(shape), model(tier, shape), "{tier} {shape:?}");
            }
        }
    }
}
