//! The two whole-model workloads: `model_tiny` and `model_wide`. One op is
//! one `CompiledGraph::execute` of each of the two Mini architectures on
//! the seeded batch.

use std::time::Instant;

use lowino::{Algorithm, BlockedImage, ConvShape, Engine, ResilientConv, Tensor4};
use lowino_nn::{mini_resnet, mini_vgg, CompiledGraph, GraphSpec, Layer, Model};

use crate::conv::{build_layer, scratch_bytes};
use crate::gen;
use crate::spans;
use crate::stats::{median_of, OpResult};

pub const IN_C: usize = 3;
pub const CLASSES: usize = 10;
/// The deployed artefact is fixed: weights and calibration images come from
/// these constants, not from `--seed`, which draws only the traffic. With
/// seeded weights the logits error of these small untrained nets swings
/// 2x from seed to seed and `out_err_rel` could not be held to a bound.
pub const VGG_WEIGHTS_SEED: u64 = 100;
pub const RESNET_WEIGHTS_SEED: u64 = 101;
pub const CALIBRATION_SEED: u64 = 102;

pub struct Plan {
    pub width: usize,
    pub hw: usize,
    pub batch: usize,
    /// Winograd tile size of every conv's LoWino rung.
    pub m: usize,
    /// Seeded input batches per run; op `i` runs batch `i % pool`. Enough
    /// images that `out_err_rel` moves by a few percent between seeds.
    pub pool: usize,
    /// Largest relative L2 error of a graph's logits, pooled over the
    /// input batches, against `Model::forward` that still passes. The
    /// models are untrained, so this bounds quantization noise through the
    /// stack, not accuracy; about twice the error at the seed commit.
    pub tol: f64,
}

pub fn plan(workload: &str) -> Plan {
    match workload {
        "model_tiny" => Plan {
            width: 8,
            hw: 8,
            batch: 4,
            m: 2,
            pool: 32,
            tol: 0.25,
        },
        "model_wide" => Plan {
            width: 128,
            hw: 32,
            batch: 4,
            m: 2,
            pool: 8,
            tol: 0.70,
        },
        other => unreachable!("not a model workload: {other}"),
    }
}

impl Plan {
    pub fn graph_spec(&self, threads: usize) -> GraphSpec {
        GraphSpec {
            m: self.m,
            batch: self.batch,
            threads,
        }
    }
}

/// The benchmark's own side: the two models, the calibration batch, the
/// seeded inference batches and the FP32 reference logits of each.
pub struct Oracle {
    pub models: Vec<Model>,
    pub calib: Tensor4,
    pub inputs: Vec<Tensor4>,
    /// `reference[batch][model]`.
    pub reference: Vec<Vec<Tensor4>>,
    /// Every conv of both models, in execution order, at the plan's batch.
    pub conv_shapes: Vec<Vec<ConvShape>>,
}

/// Every conv of `model`, in execution order, for `batch` images of
/// `hw`×`hw` (walking pools and residual bodies).
pub fn conv_shapes(model: &Model, batch: usize, hw: usize) -> Vec<ConvShape> {
    fn walk(layers: &[Layer], batch: usize, hw: &mut usize, out: &mut Vec<ConvShape>) {
        for l in layers {
            match l {
                Layer::Conv(c) => out.push(
                    ConvShape::same(batch, c.in_channels(), c.out_channels(), *hw, c.filter())
                        .validate()
                        .expect("mini-model conv is valid"),
                ),
                Layer::MaxPool(_) => *hw /= 2,
                Layer::Residual(block) => walk(&block.body, batch, hw, out),
                Layer::ReLU(_) | Layer::Gap(_) | Layer::Linear(_) => {}
            }
        }
    }
    let (mut hw, mut out) = (hw, Vec::new());
    walk(&model.layers, batch, &mut hw, &mut out);
    out
}

pub fn oracle(plan: &Plan, seed: u64) -> Oracle {
    let mut models = vec![
        mini_vgg(IN_C, plan.width, CLASSES, VGG_WEIGHTS_SEED),
        mini_resnet(IN_C, plan.width, CLASSES, RESNET_WEIGHTS_SEED),
    ];
    let images = |rng: &mut _| gen::activations(plan.batch, IN_C, plan.hw, plan.hw, rng);
    let calib = images(&mut gen::rng(CALIBRATION_SEED, 0));
    let inputs: Vec<Tensor4> = (0..plan.pool)
        .map(|i| images(&mut gen::rng(seed, 110 + i as u64)))
        .collect();
    let reference = inputs
        .iter()
        .map(|x| models.iter_mut().map(|m| m.forward(x)).collect())
        .collect();
    let conv_shapes = models
        .iter()
        .map(|m| conv_shapes(m, plan.batch, plan.hw))
        .collect();
    Oracle {
        models,
        calib,
        inputs,
        reference,
        conv_shapes,
    }
}

impl Oracle {
    /// Direct-convolution MACs of one op (both graphs, whole batch).
    pub fn direct_macs(&self) -> u64 {
        self.conv_shapes
            .iter()
            .flatten()
            .map(ConvShape::direct_macs)
            .sum()
    }
}

pub struct ModelWorkload {
    inputs: Vec<Tensor4>,
    pub graphs: Vec<CompiledGraph>,
    logits: Vec<Tensor4>,
    /// `fingerprints[batch][graph]`, recorded by the checked warm-up pass.
    fingerprints: Vec<Vec<Vec<u32>>>,
    pub out_err_rel: f64,
    /// Wall time of the `CompiledGraph::compile` calls alone.
    pub compile_ms: f64,
}

impl ModelWorkload {
    /// Everything `setup_s` times on a model workload: graph compile
    /// (calibration forward, filter packing, arena plan, pool start) and
    /// one warm-up op per input batch, each logits-checked — which also
    /// grows the scratch arenas to their steady size (asserted).
    pub fn setup(plan: &Plan, oracle: &mut Oracle, threads: usize) -> Result<Self, String> {
        let spec = plan.graph_spec(threads);
        let t = Instant::now();
        let graphs = oracle
            .models
            .iter_mut()
            .map(|m| CompiledGraph::compile(m, &oracle.calib, &spec).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;
        let logits = vec![Tensor4::zeros(plan.batch, CLASSES, 1, 1); graphs.len()];
        let mut w = ModelWorkload {
            inputs: oracle.inputs.clone(),
            graphs,
            logits,
            fingerprints: Vec::new(),
            out_err_rel: f64::INFINITY,
            compile_ms,
        };
        // Per graph, squared error and norm pooled over every batch.
        let mut pooled = vec![(0.0, 0.0); w.graphs.len()];
        let mut grown = 0;
        for (batch, reference) in oracle.reference.iter().enumerate() {
            w.pass(batch)?;
            for ((got, want), sum) in w.logits.iter().zip(reference).zip(&mut pooled) {
                let sq = gen::sq_err(got.data(), want.data());
                *sum = (sum.0 + sq.0, sum.1 + sq.1);
            }
            w.fingerprints.push(
                w.logits
                    .iter()
                    .map(|l| gen::fingerprint(l.data()).collect())
                    .collect(),
            );
            let now: usize = w.graphs.iter().map(|g| scratch_bytes(g.engine())).sum();
            if batch > 0 && now != grown {
                return Err(format!(
                    "scratch arenas still growing at warm-up op {batch}"
                ));
            }
            grown = now;
        }
        let per_graph: Vec<f64> = pooled.into_iter().map(gen::rel_err).collect();
        if let Some(err) = per_graph.iter().find(|e| **e > plan.tol) {
            return Err(format!(
                "logits relative error {err:.3e} exceeds {:.1e}",
                plan.tol
            ));
        }
        w.out_err_rel = gen::geomean(&per_graph);
        Ok(w)
    }

    fn pass(&mut self, batch: usize) -> Result<(), String> {
        let x = &self.inputs[batch];
        for (i, (g, l)) in self.graphs.iter_mut().zip(&mut self.logits).enumerate() {
            let _call = lowino_trace::span_arg(spans::GRAPH_EXECUTE, i as u64);
            g.execute(x, l).map_err(|e| format!("graph {i}: {e}"))?;
        }
        Ok(())
    }

    pub fn op(&mut self, id: u64) -> OpResult {
        let batch = id as usize % self.inputs.len();
        let start = Instant::now();
        let ran = {
            let _op = lowino_trace::span_arg(spans::OP, id);
            self.pass(batch)
        };
        let ns = start.elapsed().as_nanos() as u64;
        let ok = match ran {
            Ok(()) => self
                .logits
                .iter()
                .zip(&self.fingerprints[batch])
                .all(|(l, f)| gen::fingerprint(l.data()).eq(f.iter().copied())),
            Err(e) => {
                eprintln!("ledger: op {id} failed: {e}");
                false
            }
        };
        OpResult { ns, ok }
    }

    pub fn plan_bytes(&self) -> usize {
        self.graphs.iter().map(CompiledGraph::plan_bytes).sum()
    }

    pub fn demotions(&self) -> usize {
        self.graphs.iter().map(CompiledGraph::demotion_count).sum()
    }

    /// The algorithm each conv of each graph currently runs.
    pub fn conv_algorithms(&self) -> Vec<Vec<Algorithm>> {
        self.graphs
            .iter()
            .map(CompiledGraph::conv_algorithms)
            .collect()
    }
}

/// `nn.conv_sum_ms`: the same conv shapes with the same algorithms, each as
/// a standalone `LayerBuilder` layer on seeded tensors; the sum of their
/// median execute times.
pub fn conv_sum_ms(
    shapes: &[Vec<ConvShape>],
    algos: &[Vec<Algorithm>],
    seed: u64,
    threads: usize,
) -> Result<f64, String> {
    let mut engine = Engine::new(threads);
    let mut sum = 0.0;
    for (i, (spec, algo)) in shapes
        .iter()
        .flatten()
        .zip(algos.iter().flatten().copied())
        .enumerate()
    {
        let (input, weights) = seeded_layer(spec, seed, 200 + 2 * i as u64);
        let mut layer = build_layer(*spec, &weights, &input, algo, false, &engine)?;
        let mut out = engine.alloc_output(spec);
        let t = median_of(9, || engine.execute(&mut layer, &input, &mut out))?;
        sum += t.as_secs_f64() * 1e3;
    }
    Ok(sum)
}

fn seeded_layer(spec: &ConvShape, seed: u64, stream: u64) -> (BlockedImage, Tensor4) {
    let x = gen::activations(
        spec.batch,
        spec.in_c,
        spec.h,
        spec.w,
        &mut gen::rng(seed, stream),
    );
    (
        BlockedImage::from_nchw(&x),
        gen::weights(spec, &mut gen::rng(seed, stream + 1)),
    )
}

/// `core.resilient_overhead_share`: `ResilientConv::execute` (health scans
/// and ladder bookkeeping included) over the raw LoWino executor it wraps,
/// summed over a large layer (VGG16_c/16) and the width-8 8×8 conv, minus
/// one.
pub fn resilient_overhead_share(seed: u64, threads: usize) -> Result<f64, String> {
    let shapes = [
        (ConvShape::same(4, 512, 512, 16, 3), 4usize),
        (ConvShape::same(4, 8, 8, 8, 3), 2usize),
    ];
    let mut engine = Engine::new(threads);
    let (mut raw_s, mut resilient_s) = (0.0, 0.0);
    for (i, (spec, m)) in shapes.into_iter().enumerate() {
        let spec = spec.validate().map_err(|e| e.to_string())?;
        let (input, weights) = seeded_layer(&spec, seed, 300 + 2 * i as u64);
        let algo = Algorithm::LoWino { m };
        let mut raw = build_layer(spec, &weights, &input, algo, false, &engine)?;
        let mut resilient = ResilientConv::new(spec, m, &weights, vec![input.clone()])
            .map_err(|e| e.to_string())?;
        resilient.seed_blocking(engine.context());
        let mut out = engine.alloc_output(&spec);
        raw_s += median_of(15, || engine.execute(&mut raw, &input, &mut out))?.as_secs_f64();
        resilient_s += median_of(15, || {
            resilient.execute(&input, &mut out, engine.context_mut())
        })?
        .as_secs_f64();
        if resilient.algorithm() != algo {
            return Err(format!(
                "resilient_overhead: ladder demoted to {}",
                resilient.algorithm()
            ));
        }
    }
    Ok(resilient_s / raw_s - 1.0)
}
