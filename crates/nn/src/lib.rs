//! # lowino-nn
//!
//! A small, self-contained neural-network framework used to reproduce the
//! end-to-end accuracy experiment of paper Table 3.
//!
//! The paper evaluates post-training quantization of VGG16/ResNet-50 on
//! ImageNet. Neither the dataset nor pre-trained weights are available
//! offline, so this crate substitutes the closest synthetic equivalent that
//! exercises the same code path (see DESIGN.md):
//!
//! * [`data`] — a procedurally generated image-classification dataset with
//!   class-specific spectral prototypes plus noise;
//! * [`layers`]/[`model`] — Conv/ReLU/MaxPool/GAP/Linear layers with full
//!   backpropagation, composed into **MiniVGG** (plain 3×3 stacks) and
//!   **MiniResNet** (residual blocks), the small-scale analogues of the
//!   paper's two networks;
//! * [`train()`] — SGD with momentum + cross-entropy;
//! * [`plan`]/[`graph`] — the one model runtime and the PTQ pipeline:
//!   capture each conv's calibration activations with the FP32 model,
//!   plan a `lowino` executor per conv — the demotion ladder
//!   ([`CompiledGraph::compile`]) or one pinned [`lowino::Algorithm`]
//!   ([`CompiledGraph::quantize`], the Table 3 rows) — and compile a
//!   topologically scheduled [`CompiledGraph`] whose activations live in
//!   one liveness-planned arena, with persistent pre-transformed filter
//!   panels and bias/ReLU/residual-add folded into the conv tape
//!   epilogues — bitwise identical to a layer-at-a-time forward and
//!   allocation-free in steady state.
//!
//! The Table 3 phenomenon — LoWino ≈ FP32 at `F(2,3)` *and* `F(4,3)`,
//! down-scaling fine at `F(2,3)` but collapsing to chance at `F(4,3)` — is
//! a property of the quantization error path, not of ImageNet, and
//! reproduces on this substrate (`table3_accuracy` harness).

pub mod data;
pub mod graph;
pub mod layers;
pub mod model;
pub mod plan;
pub mod train;

pub use data::{Dataset, SyntheticSpec};
pub use graph::{CompiledGraph, GraphSpec, QuantizedSpec};
pub use layers::{Conv2dLayer, Layer};
pub use model::{mini_resnet, mini_vgg, Model};
pub use plan::{plan_slots, ArenaPlan, SlotReq, PLAN_ALIGN};
pub use train::{evaluate_top1, train, TrainConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_tiny_training_learns() {
        // A 2-class toy problem must be learnable in a few epochs.
        let spec = SyntheticSpec {
            classes: 2,
            channels: 3,
            size: 8,
            train_per_class: 40,
            test_per_class: 10,
            noise: 0.1,
            seed: 7,
        };
        let data = Dataset::generate(&spec);
        let mut model = mini_vgg(3, 8, 2, 11);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.05,
            momentum: 0.9,
            seed: 3,
        };
        train(&mut model, &data, &cfg);
        let acc = evaluate_top1(&mut model, data.test_x(), data.test_y());
        assert!(acc > 0.8, "top-1 {acc}");
    }
}
