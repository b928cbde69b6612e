//! The three single-layer workloads: `conv_deep`, `conv_wide` and
//! `conv_baselines`. One op is one pass over the workload's list of
//! (Table 2 layer, algorithm, repeat count) cases through
//! `LayerBuilder::build` + `Engine::execute`.

use std::time::{Duration, Instant};

use lowino::{
    AlgoChoice, Algorithm, BlockedImage, ConvShape, Engine, Layer, LayerBuilder, StageTimings,
    Tensor4, LANES,
};

use crate::gen::{self, table2, NamedShape};
use crate::spans;
use crate::stats::OpResult;

/// One execution in the pass: which layer, with which algorithm, how often.
pub struct Case {
    pub layer: usize,
    pub algo: Algorithm,
    /// One quantization scale per Winograd-domain tile position
    /// (`LayerBuilder::per_position_scales`) instead of one per tensor.
    pub per_position: bool,
    /// Executions per pass.
    pub reps: usize,
    /// Largest relative L2 error against `DirectF32` that still passes.
    pub tol: f64,
}

pub struct Plan {
    pub layers: Vec<NamedShape>,
    pub cases: Vec<Case>,
}

// Output tolerances per algorithm, relative L2 against DirectF32 on the
// seeded bell-shaped inputs: about twice the error measured at the seed
// commit (README.md, "Output checks"). UpCast F(4,3) really is that far
// off today; its tolerance only catches it getting worse.
const TOL_LOWINO_F4: f64 = 0.25;
const TOL_DIRECT_I8: f64 = 0.02;
const TOL_DOWNSCALE_F2: f64 = 0.07;
const TOL_UPCAST_F4: f64 = 0.90;
const TOL_WINO_F32: f64 = 1e-4;

pub const BASELINE_ALGOS: [Algorithm; 4] = [
    Algorithm::DirectInt8,
    Algorithm::DownScale { m: 2 },
    Algorithm::UpCast { m: 4 },
    Algorithm::WinogradF32 { m: 4 },
];

pub fn plan(workload: &str) -> Plan {
    // The LoWino workloads quantize per position, as the crate's quickstart
    // does: at F(4,3) the single per-tensor scale leaves ~70 % relative
    // error on these inputs, against ~12 % per position, and an accuracy
    // guard is only worth having where the baseline is accurate.
    let lowino = |layers: Vec<NamedShape>| {
        let cases = (0..layers.len())
            .map(|layer| Case {
                layer,
                algo: Algorithm::LoWino { m: 4 },
                per_position: true,
                reps: 1,
                tol: TOL_LOWINO_F4,
            })
            .collect();
        Plan { layers, cases }
    };
    match workload {
        // Table 2 shapes; the suffix is the batch divisor (hw/2 halves the
        // spatial size) that brings a pass to tens of milliseconds.
        "conv_deep" => lowino(vec![
            table2("VGG16_b/32", 2, 512, 512, 30),
            table2("VGG16_c/16", 4, 512, 512, 16),
            table2("ResNet-50_c/4", 16, 512, 512, 7),
            table2("FusionNet_c(hw/2)", 1, 512, 512, 40),
            table2("U-Net_c", 1, 512, 512, 66),
            table2("YOLOv3_c", 1, 256, 512, 16),
            table2("GoogLeNet_c/4", 16, 192, 384, 7),
            table2("AlexNet_a/16", 4, 384, 384, 13),
        ]),
        "conv_wide" => lowino(vec![
            table2("FusionNet_a(hw/2)", 1, 128, 128, 160),
            table2("U-Net_a(hw/2)", 1, 128, 128, 141),
            table2("YOLOv3_a", 1, 64, 128, 64),
            table2("ResNet-50_a/16", 4, 128, 128, 28),
            table2("GoogLeNet_a/16", 4, 128, 192, 28),
        ]),
        "conv_baselines" => {
            let layers = vec![
                table2("VGG16_c/32", 2, 512, 512, 16),
                table2("YOLOv3_b", 1, 128, 256, 32),
                table2("ResNet-50_b/16", 4, 256, 256, 14),
            ];
            // Repeat counts fixed so each algorithm is 20-30 % of the pass.
            // UpCast is 10-40x slower than the others at the seed commit,
            // so it runs on the smallest layer only.
            let (vgg, yolo, resnet) = (0, 1, 2);
            let case = |layer, algo, reps, tol| Case {
                layer,
                algo,
                per_position: false,
                reps,
                tol,
            };
            let mut cases = Vec::new();
            for layer in [vgg, yolo, resnet] {
                cases.push(case(layer, BASELINE_ALGOS[0], 2, TOL_DIRECT_I8));
                cases.push(case(layer, BASELINE_ALGOS[1], 2, TOL_DOWNSCALE_F2));
            }
            cases.push(case(yolo, BASELINE_ALGOS[2], 1, TOL_UPCAST_F4));
            for layer in [yolo, resnet] {
                cases.push(case(layer, BASELINE_ALGOS[3], 1, TOL_WINO_F32));
            }
            Plan { layers, cases }
        }
        other => unreachable!("not a conv workload: {other}"),
    }
}

impl Plan {
    /// Direct-convolution-equivalent MACs of one pass.
    pub fn direct_macs(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| self.layers[c.layer].spec.direct_macs() * c.reps as u64)
            .sum()
    }

    /// Images convolved in one pass.
    pub fn images(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| (self.layers[c.layer].spec.batch * c.reps) as u64)
            .sum()
    }
}

/// The benchmark's own side of a layer: seeded tensors and the FP32
/// reference output. Built once per process, outside every timed stretch.
pub struct LayerData {
    pub spec: ConvShape,
    pub weights: Tensor4,
    pub input: BlockedImage,
    pub reference: BlockedImage,
}

pub fn build_layer(
    spec: ConvShape,
    weights: &Tensor4,
    input: &BlockedImage,
    algo: Algorithm,
    per_position: bool,
    engine: &Engine,
) -> Result<Layer, String> {
    LayerBuilder::new(spec, weights)
        .algorithm(AlgoChoice::Fixed(algo))
        .calibration_samples(vec![input.clone()])
        .per_position_scales(per_position)
        .build(engine)
        .map_err(|e| format!("building {algo}: {e}"))
}

pub fn oracle(plan: &Plan, seed: u64, threads: usize) -> Result<Vec<LayerData>, String> {
    let mut engine = Engine::new(threads);
    plan.layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let spec = l.spec;
            let weights = gen::weights(&spec, &mut gen::rng(seed, 2 * i as u64));
            let input = BlockedImage::from_nchw(&gen::activations(
                spec.batch,
                spec.in_c,
                spec.h,
                spec.w,
                &mut gen::rng(seed, 2 * i as u64 + 1),
            ));
            let mut layer =
                build_layer(spec, &weights, &input, Algorithm::DirectF32, false, &engine)?;
            let mut reference = engine.alloc_output(&spec);
            engine
                .execute(&mut layer, &input, &mut reference)
                .map_err(|e| format!("{}: reference: {e}", l.name))?;
            Ok(LayerData {
                spec,
                weights,
                input,
                reference,
            })
        })
        .collect()
}

struct Built {
    layer: Layer,
    out: BlockedImage,
    /// `gen::fingerprint` of the output the set-up's full check accepted.
    fingerprint: Vec<u32>,
}

/// The program under test, set up: an engine and one planned layer per case.
pub struct ConvWorkload<'a> {
    plan: &'a Plan,
    data: &'a [LayerData],
    engine: Engine,
    built: Vec<Built>,
    /// Relative L2 error of the whole pass against the FP32 reference.
    pub out_err_rel: f64,
    /// Stage timings summed over every execute since the last `take_stages`.
    stages: StageTimings,
}

/// Bytes held by the engine's per-worker scratch arenas.
pub fn scratch_bytes(engine: &Engine) -> usize {
    let arena = &engine.context().scratch;
    (0..arena.workers())
        .map(|w| {
            let s = arena.worker(w);
            4 * (s.patch_f.len() + s.tile_f.len() + s.acc_f.len())
                + 4 * (s.patch_i.len() + s.tile_i.len())
                + s.tile_u8.len()
        })
        .sum()
}

impl<'a> ConvWorkload<'a> {
    /// Everything `setup_s` times on a conv workload: pool start, filter
    /// transform and packing, calibration, executor build, warm-up passes
    /// until the scratch arenas stop growing, and the full output check.
    pub fn setup(plan: &'a Plan, data: &'a [LayerData], threads: usize) -> Result<Self, String> {
        let engine = Engine::new(threads);
        let built = plan
            .cases
            .iter()
            .map(|c| {
                let d = &data[c.layer];
                let layer = build_layer(
                    d.spec,
                    &d.weights,
                    &d.input,
                    c.algo,
                    c.per_position,
                    &engine,
                )?;
                Ok(Built {
                    layer,
                    out: engine.alloc_output(&d.spec),
                    fingerprint: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut w = ConvWorkload {
            plan,
            data,
            engine,
            built,
            out_err_rel: f64::INFINITY,
            stages: StageTimings::default(),
        };
        let mut grown = usize::MAX;
        for _ in 0..8 {
            w.pass()?;
            let now = scratch_bytes(&w.engine);
            if now == grown {
                break;
            }
            grown = now;
        }
        w.take_stages();
        w.out_err_rel = w.check_outputs()?;
        for b in &mut w.built {
            b.fingerprint = gen::fingerprint(b.out.data()).collect();
        }
        Ok(w)
    }

    fn pass(&mut self) -> Result<(), String> {
        for (i, (c, b)) in self.plan.cases.iter().zip(&mut self.built).enumerate() {
            let input = &self.data[c.layer].input;
            for _ in 0..c.reps {
                let _call = lowino_trace::span_arg(spans::CONV_EXECUTE, i as u64);
                let t = self
                    .engine
                    .execute(&mut b.layer, input, &mut b.out)
                    .map_err(|e| {
                        format!("{} on {}: {e}", c.algo, self.plan.layers[c.layer].name)
                    })?;
                self.stages.accumulate(&t);
            }
        }
        Ok(())
    }

    /// Every case's output against its layer's FP32 reference, each within
    /// its algorithm's tolerance. Returns `out_err_rel`: the geometric mean
    /// of the quantized cases' errors, so each case's relative change
    /// weighs the same (FP32 cases are rounding noise and only checked).
    pub fn check_outputs(&self) -> Result<f64, String> {
        let mut quantized = Vec::new();
        for (c, b) in self.plan.cases.iter().zip(&self.built) {
            let err = gen::rel_err(gen::sq_err(
                b.out.data(),
                self.data[c.layer].reference.data(),
            ));
            if err > c.tol {
                return Err(format!(
                    "{} on {}: relative error {err:.3e} exceeds {:.1e}",
                    c.algo, self.plan.layers[c.layer].name, c.tol
                ));
            }
            if !matches!(c.algo, Algorithm::WinogradF32 { .. } | Algorithm::DirectF32) {
                quantized.push(err);
            }
        }
        Ok(gen::geomean(&quantized))
    }

    /// One timed pass, then (outside the timing) the fingerprint check.
    pub fn op(&mut self, id: u64) -> OpResult {
        let start = Instant::now();
        let ran = {
            let _op = lowino_trace::span_arg(spans::OP, id);
            self.pass()
        };
        let ns = start.elapsed().as_nanos() as u64;
        let ok = match ran {
            Ok(()) => self
                .built
                .iter()
                .all(|b| gen::fingerprint(b.out.data()).eq(b.fingerprint.iter().copied())),
            Err(e) => {
                eprintln!("ledger: op {id} failed: {e}");
                false
            }
        };
        OpResult { ns, ok }
    }

    /// Move the planned layers onto a fresh engine with `threads` workers
    /// (the layers keep their packed filters and scales; scratch regrows on
    /// the warm-up pass run here).
    pub fn rethread(&mut self, threads: usize) -> Result<(), String> {
        self.engine = Engine::new(threads);
        self.pass()?;
        self.take_stages();
        Ok(())
    }

    pub fn take_stages(&mut self) -> StageTimings {
        std::mem::take(&mut self.stages)
    }
}

/// Computed (not measured) traffic of one execution: bytes the input stage
/// reads and writes, bytes the output stage reads and writes, and the MACs
/// of the multiplication stage in the domain it runs in. Padded channel
/// counts, as the kernels see them.
pub struct Traffic {
    pub input_bytes: f64,
    pub output_bytes: f64,
    pub gemm_macs: f64,
}

pub fn traffic(spec: &ConvShape, algo: Algorithm) -> Traffic {
    let round = |c: usize| c.div_ceil(LANES) * LANES;
    let (cp, kp) = (round(spec.in_c) as f64, round(spec.out_c) as f64);
    let out_pixels = (spec.batch * spec.out_h() * spec.out_w()) as f64;
    match algo.tile_m() {
        Some(m) => {
            let geom = spec.tiles(m).expect("Table 2 layers tile");
            let (t, tiles) = (geom.t() as f64, geom.total as f64);
            // Transformed-input element width: u8, i16 or f32.
            let v_bytes = match algo {
                Algorithm::UpCast { .. } => 2.0,
                Algorithm::WinogradF32 { .. } => 4.0,
                _ => 1.0,
            };
            Traffic {
                input_bytes: tiles * t * cp * (4.0 + v_bytes),
                output_bytes: tiles * kp * 4.0 * (t + (m * m) as f64),
                gemm_macs: t * tiles * cp * kp,
            }
        }
        None => {
            let in_pixels = (spec.batch * spec.h * spec.w) as f64;
            Traffic {
                input_bytes: in_pixels * cp * 5.0,
                output_bytes: out_pixels * kp * 8.0,
                gemm_macs: out_pixels * cp * kp * (spec.r * spec.r) as f64,
            }
        }
    }
}

impl Plan {
    pub fn traffic(&self) -> Traffic {
        let mut sum = Traffic {
            input_bytes: 0.0,
            output_bytes: 0.0,
            gemm_macs: 0.0,
        };
        for c in &self.cases {
            let t = traffic(&self.layers[c.layer].spec, c.algo);
            sum.input_bytes += t.input_bytes * c.reps as f64;
            sum.output_bytes += t.output_bytes * c.reps as f64;
            sum.gemm_macs += t.gemm_macs * c.reps as f64;
        }
        sum
    }
}

/// `core.select_regret`: over the plan's layers, the time of
/// `select_algorithm`'s choice over the best measured of DirectInt8,
/// LoWino F(2,3)/F(4,3) and DownScale F(2,3), minus one; the mean over
/// layers.
pub fn select_regret(data: &[LayerData], threads: usize) -> Result<f64, String> {
    let candidates = [
        Algorithm::DirectInt8,
        Algorithm::LoWino { m: 2 },
        Algorithm::LoWino { m: 4 },
        Algorithm::DownScale { m: 2 },
    ];
    let mut engine = Engine::new(threads);
    let mut regrets = Vec::new();
    for d in data {
        let chosen = lowino::select_algorithm(&d.spec);
        let mut times: Vec<(Algorithm, Duration)> = Vec::new();
        for algo in candidates {
            let mut layer = build_layer(d.spec, &d.weights, &d.input, algo, false, &engine)?;
            let mut out = engine.alloc_output(&d.spec);
            let t = crate::stats::best_of(5, || engine.execute(&mut layer, &d.input, &mut out))?;
            times.push((algo, t));
        }
        let best = times
            .iter()
            .map(|(_, t)| *t)
            .min()
            .expect("four candidates");
        let (_, t_chosen) = times
            .iter()
            .find(|(a, _)| *a == chosen)
            .ok_or_else(|| format!("select_algorithm chose {chosen}, outside the measured set"))?;
        regrets.push(t_chosen.as_secs_f64() / best.as_secs_f64() - 1.0);
    }
    Ok(regrets.iter().sum::<f64>() / regrets.len() as f64)
}
