//! Differential battery: the whole-model graph engine
//! ([`lowino_nn::CompiledGraph`]) must be **bitwise identical** to the
//! per-layer test oracle (`common/per_layer.rs`: each conv its own planned
//! layer, the glue in plain NCHW f32) — for MiniResNet, MiniVGG and a
//! model whose ReLU and residual add stay unfused, at thread counts 1, 2
//! and 4, on whatever SIMD tier the process runs under (`ci/check.sh`
//! re-runs this binary with `LOWINO_FORCE_TIER` pinned to every tier the
//! host supports). Both of the graph's entry points are held to it:
//! [`CompiledGraph::compile`]'s ladder serving LoWino, and
//! [`CompiledGraph::quantize`] pinned to every Table 3 row.
//!
//! This is the strongest correctness statement the graph engine makes:
//! folding bias/ReLU/residual-add into the conv tape epilogues, replacing
//! per-layer allocations with liveness-planned arena windows, and
//! re-blocking the glue ops must change **no bit** of the logits. The
//! per-element arithmetic order is a contract, not an accident.

#[path = "common/per_layer.rs"]
mod per_layer;

use lowino::{Algorithm, Tensor4};
use lowino_nn::layers::{
    Conv2dLayer, GapLayer, LinearLayer, MaxPoolLayer, ReluLayer, ResidualBlock,
};
use lowino_nn::{mini_resnet, mini_vgg, CompiledGraph, GraphSpec, Layer, Model, QuantizedSpec};
use lowino_testkit::Rng;
use per_layer::PerLayer;

/// Give every conv/linear a non-trivial bias (fresh layers initialise
/// biases to zero, which would let a broken bias epilogue pass).
fn inject_biases(layers: &mut [Layer], rng: &mut Rng) {
    for l in layers {
        match l {
            Layer::Conv(c) => {
                for b in &mut c.bias {
                    *b = rng.f32_range(-0.3, 0.3);
                }
            }
            Layer::Linear(lin) => {
                for b in &mut lin.bias {
                    *b = rng.f32_range(-0.3, 0.3);
                }
            }
            Layer::Residual(r) => inject_biases(&mut r.body, rng),
            _ => {}
        }
    }
}

fn build_model(resnet: bool, seed: u64) -> Model {
    with_biases(if resnet { mini_resnet(3, 8, 3, seed) } else { mini_vgg(3, 8, 3, seed) }, seed)
}

fn with_biases(mut model: Model, seed: u64) -> Model {
    inject_biases(&mut model.layers, &mut Rng::seed_from_u64(seed ^ 0xB1A5));
    model
}

/// A model in which neither fusion happens: a ReLU after a max-pool runs
/// as the graph's standalone ReLU, and a residual body ending in a ReLU'd
/// conv leaves the skip-add to the unfused residual op.
fn unfused_model(seed: u64) -> Model {
    let mut rng = Rng::seed_from_u64(seed);
    let layers = vec![
        Layer::Conv(Conv2dLayer::new(3, 8, 3, &mut rng)),
        Layer::MaxPool(MaxPoolLayer::new()),
        Layer::ReLU(ReluLayer::new()),
        Layer::Residual(ResidualBlock::new(vec![
            Layer::Conv(Conv2dLayer::new(8, 8, 3, &mut rng)),
            Layer::ReLU(ReluLayer::new()),
            Layer::Conv(Conv2dLayer::new(8, 8, 3, &mut rng)),
            Layer::ReLU(ReluLayer::new()),
        ])),
        Layer::Gap(GapLayer::new()),
        Layer::Linear(LinearLayer::new(8, 3, &mut rng)),
    ];
    with_biases(Model::new(layers, 3), seed)
}

fn batch(n: usize, seed: u64) -> Tensor4 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor4::zeros(n, 3, 8, 8);
    rng.fill_f32(t.data_mut(), -1.5, 1.5);
    t
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Which of the graph's entry points a cell compiles.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `compile`: the demotion ladder, which must serve LoWino `F(m, 3)`.
    Ladder,
    /// `quantize`: every conv pinned to the oracle's algorithm.
    Pinned,
}

/// One cell: logits from the graph engine vs the per-layer oracle pinned
/// to `algo`, compared bit for bit. A model the oracle cannot quantize
/// must fail the graph with the same error; returns whether both built.
fn check(
    model: impl Fn() -> Model,
    entry: Entry,
    algo: Algorithm,
    per_position: bool,
    threads: usize,
) -> bool {
    let m = algo.tile_m().unwrap_or(0);
    let calib = batch(4, 0xCA11B ^ m as u64);
    let x = batch(2, 0x1D ^ threads as u64);
    let qspec = QuantizedSpec { algorithm: algo, per_position, batch: 2, threads };

    // A fresh identically-seeded model each: the calibration walk mutates
    // layer caches.
    let oracle = PerLayer::quantize(&mut model(), &calib, &qspec);
    let graph = match entry {
        Entry::Ladder => {
            CompiledGraph::compile(&mut model(), &calib, &GraphSpec { m, batch: 2, threads })
        }
        Entry::Pinned => CompiledGraph::quantize(&mut model(), &calib, &qspec),
    };
    let cell = format!("{entry:?} {algo} per_position={per_position} threads={threads}");
    let (mut q, mut g) = match (oracle, graph) {
        (Ok(q), Ok(g)) => (q, g),
        (Err(want), Err(got)) => {
            assert_eq!(got.to_string(), want.to_string(), "{cell}: a different refusal");
            return false;
        }
        (want, got) => panic!("{cell}: oracle {:?} but graph {:?}", want.err(), got.err()),
    };
    let want = q.logits(&x);
    let got = g.logits(&x);

    assert_eq!(g.demotion_count(), 0, "{cell}: healthy model must not demote");
    assert_eq!(g.conv_algorithms().first(), Some(&algo), "{cell}: serving algorithm");
    assert!(!g.plan_degraded());
    assert_eq!(
        bits(&got),
        bits(&want),
        "{cell}: graph logits differ from the per-layer oracle:\n {got:?}\n vs {want:?}",
    );
    true
}

/// The ladder cells: `compile` vs the oracle pinned to LoWino `F(m, 3)`.
fn check_identity(resnet: bool, m: usize, threads: usize) {
    let model = || build_model(resnet, 31);
    check(model, Entry::Ladder, Algorithm::LoWino { m }, false, threads);
}

#[test]
fn miniresnet_graph_matches_per_layer_bitwise_1_thread() {
    check_identity(true, 2, 1);
}

#[test]
fn miniresnet_graph_matches_per_layer_bitwise_4_threads() {
    check_identity(true, 2, 4);
}

#[test]
fn minivgg_graph_matches_per_layer_bitwise_1_thread() {
    check_identity(false, 2, 1);
}

#[test]
fn minivgg_graph_matches_per_layer_bitwise_4_threads() {
    check_identity(false, 2, 4);
}

#[test]
fn f4_tile_also_matches_bitwise() {
    // The F(4,3) tapes take a different codelet path than F(2,3); the
    // identity must hold there too.
    check_identity(true, 4, 2);
    check_identity(false, 4, 2);
}

/// Table 3's rows, `--extended` included, plus the FP32 Winograd baseline.
const TABLE3: [(Algorithm, bool); 9] = [
    (Algorithm::DirectInt8, false),
    (Algorithm::DownScale { m: 2 }, false),
    (Algorithm::LoWino { m: 2 }, false),
    (Algorithm::DownScale { m: 4 }, false),
    (Algorithm::LoWino { m: 4 }, false),
    (Algorithm::UpCast { m: 2 }, false),
    (Algorithm::LoWino { m: 4 }, true),
    (Algorithm::LoWino { m: 6 }, true),
    (Algorithm::WinogradF32 { m: 2 }, false),
];

#[test]
fn quantized_graph_matches_per_layer_bitwise_on_every_table3_row() {
    for resnet in [false, true] {
        for (algo, per_position) in TABLE3 {
            check(|| build_model(resnet, 31), Entry::Pinned, algo, per_position, 2);
        }
    }
}

#[test]
fn upcast_f6_is_refused_like_the_per_layer_oracle() {
    for resnet in [false, true] {
        let model = || build_model(resnet, 31);
        assert!(!check(model, Entry::Pinned, Algorithm::UpCast { m: 6 }, false, 1));
    }
}

#[test]
fn unfused_relu_and_residual_match_per_layer_bitwise() {
    let model = || unfused_model(57);
    check(model, Entry::Ladder, Algorithm::LoWino { m: 2 }, false, 1);
    for (algo, per_position) in TABLE3 {
        check(model, Entry::Pinned, algo, per_position, 2);
    }
    check(model, Entry::Pinned, Algorithm::DirectF32, false, 1);
}

#[test]
fn thread_count_does_not_change_graph_output() {
    // The work partition is static and each output element is computed by
    // exactly one task, so the logits are thread-count-invariant.
    let calib = batch(4, 7);
    let x = batch(2, 9);
    let mut logits = Vec::new();
    for threads in [1, 4] {
        let mut model = build_model(true, 13);
        let spec = GraphSpec { m: 2, batch: 2, threads };
        let mut g = CompiledGraph::compile(&mut model, &calib, &spec).unwrap();
        logits.push(bits(&g.logits(&x)));
    }
    assert_eq!(logits[0], logits[1], "graph output varies with threads");
}
