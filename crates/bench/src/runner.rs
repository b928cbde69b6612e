//! Shared execution machinery for the harness binaries and benches.

use lowino::prelude::*;
use lowino::{ConvContext, ConvError};
use lowino_testkit::Rng;

/// Column label of an algorithm in the reports (matches the paper's
/// legends).
pub fn label(algo: Algorithm) -> String {
    match algo {
        Algorithm::DirectF32 => "FP32 Direct".into(),
        Algorithm::WinogradF32 { m } => format!("FP32 Winograd F({m}x{m})"),
        Algorithm::DirectInt8 => "INT8 Direct (oneDNN-like)".into(),
        Algorithm::DownScale { m } => format!("INT8 Winograd F({m}x{m}) (oneDNN-like)"),
        Algorithm::LoWino { m } => format!("INT8 Winograd F({m}x{m}) LoWino"),
        Algorithm::UpCast { m } => format!("INT16 Winograd F({m}x{m}) (ncnn-like)"),
    }
}

/// Deterministic synthetic activations with a bell-ish distribution.
pub fn synth_input(spec: &ConvShape, seed: u64) -> Tensor4 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = Tensor4::zeros(spec.batch, spec.in_c, spec.h, spec.w);
    for v in t.data_mut() {
        *v = rng.bellish(1.0);
    }
    t
}

/// Deterministic synthetic weights.
pub fn synth_weights(spec: &ConvShape, seed: u64) -> Tensor4 {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let scale = (2.0 / (spec.in_c * spec.r * spec.r) as f32).sqrt();
    let mut t = Tensor4::zeros(spec.out_c, spec.in_c, spec.r, spec.r);
    for v in t.data_mut() {
        *v = rng.f32_range(-1.0, 1.0) * scale;
    }
    t
}

/// Plan an executor for one benchmark algorithm (calibrating on the given
/// input, which the figures also use as the measured workload).
pub fn build_executor(
    algo: Algorithm,
    spec: &ConvShape,
    weights: &Tensor4,
    input: &BlockedImage,
    engine: &Engine,
) -> Result<Layer, ConvError> {
    LayerBuilder::new(*spec, weights)
        .algorithm(AlgoChoice::Fixed(algo))
        .calibration_samples(vec![input.clone()])
        .build(engine)
}

/// Run `reps` timed executions (after one warm-up) and return the
/// best-of-reps timings (the rep with the smallest total — standard
/// practice on noisy shared hosts).
pub fn run_timed(
    layer: &mut Layer,
    input: &BlockedImage,
    output: &mut BlockedImage,
    ctx: &mut ConvContext,
    reps: u32,
) -> StageTimings {
    let exec = layer.executor_mut();
    exec.execute(input, output, ctx).expect("warm-up rep");
    let mut best: Option<StageTimings> = None;
    for _ in 0..reps.max(1) {
        let t = exec.execute(input, output, ctx).expect("timed rep");
        if best.as_ref().is_none_or(|b| t.total() < b.total()) {
            best = Some(t);
        }
    }
    best.expect("reps >= 1")
}

/// Testable core of [`arg`]: `Ok(None)` when the key is absent,
/// `Ok(Some(v))` when present and parseable, and `Err` (naming the key
/// and the offending value) when a value is present but does not parse —
/// a typo like `--reps abc` must never silently become the default.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{key} expects a value but none was given"));
    };
    raw.parse().map(Some).map_err(|_| {
        format!(
            "invalid value {raw:?} for {key} (expected a {})",
            std::any::type_name::<T>()
        )
    })
}

/// Tiny argv parser for the harness binaries: `--key value` pairs.
/// Missing keys fall back to `default`; a present-but-unparseable value
/// aborts the process with a clear message instead of being ignored.
pub fn arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match parse_arg(args, key) {
        Ok(v) => v.unwrap_or(default),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Flag presence.
pub fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(
            label(Algorithm::LoWino { m: 4 }),
            "INT8 Winograd F(4x4) LoWino"
        );
        assert_eq!(
            label(Algorithm::DownScale { m: 2 }),
            "INT8 Winograd F(2x2) (oneDNN-like)"
        );
    }

    #[test]
    fn synth_data_is_deterministic() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        assert_eq!(
            synth_input(&spec, 5).max_abs_diff(&synth_input(&spec, 5)),
            0.0
        );
        assert!(synth_input(&spec, 5).max_abs_diff(&synth_input(&spec, 6)) > 0.0);
        assert!(synth_weights(&spec, 1).max_abs() > 0.0);
    }

    #[test]
    fn run_timed_executes() {
        let spec = ConvShape::same(1, 8, 8, 8, 3).validate().unwrap();
        let w = synth_weights(&spec, 1);
        let input = BlockedImage::from_nchw(&synth_input(&spec, 2));
        let mut engine = Engine::new(1);
        let mut layer =
            build_executor(Algorithm::LoWino { m: 2 }, &spec, &w, &input, &engine).unwrap();
        let mut out = engine.alloc_output(&spec);
        let ctx = engine.context_mut();
        let t = run_timed(&mut layer, &input, &mut out, ctx, 2);
        assert!(t.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--reps", "7", "--flag"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg(&args, "--reps", 3u32), 7);
        assert_eq!(arg(&args, "--missing", 3u32), 3);
        assert!(has_flag(&args, "--flag"));
        assert!(!has_flag(&args, "--other"));
    }

    #[test]
    fn bad_arg_values_are_errors_not_defaults() {
        let args: Vec<String> = ["--reps", "abc", "--tail"].iter().map(|s| s.to_string()).collect();
        let err = parse_arg::<u32>(&args, "--reps").unwrap_err();
        assert!(err.contains("--reps"), "message names the key: {err}");
        assert!(err.contains("abc"), "message names the value: {err}");
        // A key at the end of argv with no value is also an error.
        let err = parse_arg::<u32>(&args, "--tail").unwrap_err();
        assert!(err.contains("--tail"), "{err}");
        // Present-and-valid / absent keys still behave as before.
        assert_eq!(parse_arg::<String>(&args, "--reps").unwrap().as_deref(), Some("abc"));
        assert_eq!(parse_arg::<u32>(&args, "--missing").unwrap(), None);
    }
}
