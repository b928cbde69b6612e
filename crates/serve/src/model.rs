//! What a shard executes: the [`BatchModel`] contract and the
//! [`GraphModel`] adapter over a compiled graph.
//!
//! The server core is model-agnostic — the batcher, HTTP layer and shard
//! plumbing only see flat `f32` slices — so the deterministic tests can
//! substitute trivial models (identity, deliberately slow, failing) while
//! production shards run [`lowino_nn::CompiledGraph`].
//!
//! A model is **not** required to be `Send`: each shard worker constructs
//! its own instance *inside* its thread from a factory closure and never
//! moves it. That keeps engine internals (thread pools, scratch arenas)
//! pinned to their shard.

use lowino::Tensor4;
use lowino_nn::CompiledGraph;

/// A model that answers fixed-shape requests in batches.
pub trait BatchModel {
    /// `f32`s per request input.
    fn input_len(&self) -> usize;
    /// `f32`s per request output.
    fn output_len(&self) -> usize;
    /// Largest batch one [`BatchModel::infer`] call accepts.
    fn max_batch(&self) -> usize;
    /// Run `count ≤ max_batch` requests: `inputs` holds
    /// `count · input_len` floats back to back, `outputs` must receive
    /// `count · output_len`.
    fn infer(&mut self, inputs: &[f32], count: usize, outputs: &mut [f32])
        -> Result<(), String>;
    /// Cumulative demotions taken by this model's resilience ladders.
    fn demotions(&self) -> usize {
        0
    }
    /// Human-readable active algorithm per conv (for `/stats`).
    fn algorithms(&self) -> Vec<String> {
        Vec::new()
    }
    /// Nothing calls this, and it does nothing: health checks are free and
    /// cannot be switched off, so no brownout rung relaxes them. It stays
    /// only because the benchmark ledger's `TimedModel`
    /// (`benchmark/src/serve.rs`) still overrides it, and goes with that
    /// override.
    fn set_degraded(&mut self, _degraded: bool) {}
}

/// A [`CompiledGraph`] serving NCHW image requests.
pub struct GraphModel {
    graph: CompiledGraph,
    input: Tensor4,
    logits: Tensor4,
}

impl GraphModel {
    /// Wrap a compiled graph. Requests are single images — `C·H·W`
    /// little-endian `f32`s for the graph's input dims — and responses
    /// are the `classes` logits.
    pub fn new(graph: CompiledGraph) -> Self {
        let (c, h, w) = graph.input_dims();
        let input = Tensor4::zeros(graph.batch(), c, h, w);
        let logits = Tensor4::zeros(graph.batch(), graph.classes(), 1, 1);
        Self { graph, input, logits }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &CompiledGraph {
        &self.graph
    }
}

impl BatchModel for GraphModel {
    fn input_len(&self) -> usize {
        let (c, h, w) = self.graph.input_dims();
        c * h * w
    }

    fn output_len(&self) -> usize {
        self.graph.classes()
    }

    fn max_batch(&self) -> usize {
        self.graph.batch()
    }

    fn infer(
        &mut self,
        inputs: &[f32],
        count: usize,
        outputs: &mut [f32],
    ) -> Result<(), String> {
        let il = self.input_len();
        let ol = self.output_len();
        assert!(count <= self.graph.batch(), "batch overflow: {count}");
        assert_eq!(inputs.len(), count * il, "input slice shape");
        assert_eq!(outputs.len(), count * ol, "output slice shape");
        // One request = one NCHW image = `il` contiguous floats, so the
        // wire layout maps straight onto the tensor's batch-major data.
        let data = self.input.data_mut();
        data[..count * il].copy_from_slice(inputs);
        data[count * il..].fill(0.0); // zero-pad the tail of the batch
        self.graph
            .execute(&self.input, &mut self.logits)
            .map_err(|e| format!("graph execute: {e}"))?;
        outputs.copy_from_slice(&self.logits.data()[..count * ol]);
        Ok(())
    }

    fn demotions(&self) -> usize {
        self.graph.demotion_count()
    }

    fn algorithms(&self) -> Vec<String> {
        self.graph
            .conv_algorithms()
            .iter()
            .map(|a| a.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_nn::{mini_vgg, GraphSpec};

    fn small_graph() -> CompiledGraph {
        let mut model = mini_vgg(3, 8, 3, 77);
        let calib = Tensor4::from_fn(2, 3, 8, 8, |b, c, y, x| {
            ((b * 31 + c * 7 + y * 3 + x) as f32 * 0.37).sin()
        });
        let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
        CompiledGraph::compile(&mut model, &calib, &spec).unwrap()
    }

    #[test]
    fn graph_model_answers_batches_of_every_occupancy() {
        let mut m = GraphModel::new(small_graph());
        assert_eq!(m.input_len(), 3 * 8 * 8);
        assert_eq!(m.output_len(), 3);
        assert_eq!(m.max_batch(), 2);
        let il = m.input_len();
        let inputs: Vec<f32> = (0..2 * il).map(|i| ((i as f32) * 0.05).cos()).collect();
        let mut full = vec![0.0f32; 2 * 3];
        m.infer(&inputs, 2, &mut full).unwrap();
        assert!(full.iter().all(|v| v.is_finite()));
        // A partial batch answers the same as the full batch's first
        // element (the pad images can't contaminate real outputs).
        let mut part = vec![0.0f32; 3];
        m.infer(&inputs[..il], 1, &mut part).unwrap();
        assert_eq!(part, full[..3]);
        assert_eq!(m.demotions(), 0);
        assert!(!m.algorithms().is_empty());
    }
}
