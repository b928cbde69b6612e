//! Whole-model bench for the graph engine: MiniResNet and MiniVGG driven
//! end-to-end through [`lowino_nn::CompiledGraph::execute`] (liveness-
//! planned arena, fused conv epilogues) against the per-layer
//! [`lowino_nn::QuantizedModel`] interpreter. `throughput_elements` is the
//! multiply-accumulate count of one forward pass (computed by walking the
//! layer list with a shape tracker), so `gelems_per_s` reads as GMAC/s —
//! comparable across batch sizes and architectures. The old report used
//! `elements = batch`, which rounded every model's rate down to
//! `"gelems_per_s":0.0000`.
//!
//! Run with `cargo bench --bench models`; set
//! `LOWINO_BENCH_JSON=BENCH_PR7.json` to accumulate the JSON-line log and
//! `LOWINO_BENCH_SMOKE=1` for a seconds-long CI smoke configuration (one
//! MiniResNet cell). With `LOWINO_TRACE=<path>` the smoke run also emits
//! whole-model `graph/execute` + `graph/layer` spans for `trace_check`.

use lowino::{Algorithm, Tensor4};
use lowino_nn::{
    mini_resnet, mini_vgg, CompiledGraph, GraphSpec, Layer, Model, QuantizedModel, QuantizedSpec,
};
use lowino_testkit::{black_box, BenchGroup, Rng};
use std::time::Duration;

struct Config {
    smoke: bool,
}

impl Config {
    fn from_env() -> Self {
        Self {
            smoke: std::env::var("LOWINO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"),
        }
    }
}

/// Multiply-accumulate count of one forward pass at an `(batch, ·, h, w)`
/// input. The shape tracker mirrors each layer's forward: same-padding
/// stride-1 convs preserve `H×W`, max-pool halves it, GAP collapses it to
/// `1×1`, and a residual body preserves shape. Element-wise layers (ReLU,
/// the residual add) contribute no MACs.
fn model_macs(layers: &[Layer], batch: usize, mut h: usize, mut w: usize) -> u64 {
    let mut macs = 0u64;
    for l in layers {
        match l {
            Layer::Conv(c) => {
                macs += (batch * c.out_channels() * c.in_channels() * h * w) as u64
                    * (c.filter() * c.filter()) as u64;
            }
            Layer::MaxPool(_) => {
                h /= 2;
                w /= 2;
            }
            Layer::Gap(_) => {
                h = 1;
                w = 1;
            }
            Layer::Linear(lin) => macs += (batch * lin.weights.len()) as u64,
            Layer::Residual(r) => macs += model_macs(&r.body, batch, h, w),
            Layer::ReLU(_) => {}
        }
    }
    macs
}

fn input(batch: usize, seed: u64) -> Tensor4 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor4::zeros(batch, 3, 8, 8);
    rng.fill_f32(t.data_mut(), -1.0, 1.0);
    t
}

fn bench_model(
    name: &str,
    build: fn(usize, usize, usize, u64) -> Model,
    batch: usize,
    threads: usize,
    cfg: &Config,
) {
    let x = input(batch, 11);
    let calib = input(batch, 5);
    let spec = GraphSpec { m: 2, batch, threads };

    let mut model = build(3, 8, 3, 31);
    let mut graph = CompiledGraph::compile(&mut model, &calib, &spec).expect("compile graph");
    let mut logits = Tensor4::zeros(batch, 3, 1, 1);
    // Warm-up outside the timed region: the first execute grows the
    // per-worker scratch arenas; afterwards execute is allocation-free.
    graph.execute(&x, &mut logits).expect("warm-up");

    let mut model = build(3, 8, 3, 31);
    let mut per_layer = QuantizedModel::from_model(
        &mut model,
        &calib,
        &QuantizedSpec {
            algorithm: Algorithm::LoWino { m: 2 },
            per_position: false,
            batch,
            threads,
        },
    )
    .expect("convert per-layer model");

    let mut group = BenchGroup::new(format!("models/{name}/b{batch}/t{threads}"));
    if cfg.smoke {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60))
            .warm_up_time(Duration::from_millis(20));
    } else {
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300));
    }
    // One element = one multiply-accumulate: `gelems_per_s` is GMAC/s.
    // (Both the graph engine and the per-layer interpreter run the same
    // layer list, so one MAC count serves both bench functions.)
    group.throughput_elements(model_macs(&model.layers, batch, 8, 8));

    // The timed loops run as many passes as the host manages in the window;
    // traced, a fast host wraps the rings and ages the compile-time events
    // out of the smoke's trace. So the smoke times untraced and then
    // records exactly one pass of each path.
    let trace_one_pass = cfg.smoke && lowino_trace::enabled();
    if trace_one_pass {
        lowino_trace::set_enabled(false);
    }
    group.bench_function("graph", || {
        graph.execute(&x, &mut logits).expect("bench rep");
        black_box(logits.data()[0]);
    });
    group.bench_function("per_layer", || {
        let out = per_layer.logits(&x);
        black_box(out.data()[0]);
    });
    if trace_one_pass {
        lowino_trace::set_enabled(true);
        graph.execute(&x, &mut logits).expect("traced pass");
        black_box(per_layer.logits(&x).data()[0]);
    }
}

fn main() {
    lowino_trace::init_from_env();
    let cfg = Config::from_env();
    if cfg.smoke {
        // One MiniResNet cell: proves compile + arena execute + trace spans.
        bench_model("miniresnet", mini_resnet, 2, 2, &cfg);
        lowino_trace::flush_to_env();
        return;
    }
    for &(batch, threads) in &[(4usize, 1usize), (4, 2), (8, 4)] {
        bench_model("miniresnet", mini_resnet, batch, threads, &cfg);
        bench_model("minivgg", mini_vgg, batch, threads, &cfg);
    }
    lowino_trace::flush_to_env();
}
