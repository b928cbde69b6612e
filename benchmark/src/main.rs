//! `lowino-ledger`: the LoWino benchmark. See `README.md` for what it
//! measures and why; `../BENCHMARK.json` is the machine-readable contract.
//!
//! Two ways to run (both through `benchmark/run.sh`, which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last stdout line is the result object.
//!   `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//!   metrics.
//! * without `--trace` — the whole ledger: every workload (or the one
//!   named) untraced then traced, each run in a fresh child process, merged
//!   into one JSON document with the host fingerprint.

mod conv;
mod gen;
mod host;
mod model;
mod probes;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: u32,
    spec: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        runs: 1,
        spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            args.spec = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {value:?}; one of {}",
                        names.join(", ")
                    ));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--runs" => {
                args.runs = value.parse().map_err(|_| bad())?;
                if args.runs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// Run one `(workload, seed, trace)` in a fresh process and return its
/// result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(str::to_string)
        .ok_or_else(|| format!("{workload} printed no result"))
}

/// The whole ledger as one document: per workload, `runs` untraced results
/// (seeds `seed`, `seed+1`, …) and one traced result.
fn ledger(args: &Args) -> Result<String, String> {
    let mut doc = format!(
        "{{\"schema\":\"lowino-ledger/1\",\"host\":{},\"runs\":{},\"workloads\":{{",
        host::fingerprint_json(args.seed, args.seconds),
        args.runs
    );
    let selected = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n));
    for (i, name) in selected.enumerate() {
        eprintln!("ledger: {name}");
        let untraced = (0..args.runs)
            .map(|r| child(name, args.seed + r as u64, args.seconds, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(name, args.seed, args.seconds, true)?;
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "\"{name}\":{{\"untraced\":[{}],\"traced\":{traced}}}",
            untraced.join(",")
        ));
    }
    doc.push_str("}}");
    lowino_testkit::validate_json(&doc).map_err(|e| format!("ledger document: {e}"))?;
    Ok(doc)
}

fn main() -> ExitCode {
    // Hermetic: no LOWINO_* knob (forced tier, wisdom file, retune policy,
    // fault sites, serve overrides) reaches the program under test.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LOWINO_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lowino-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match (args.trace, &args.workload) {
        (Some(trace), Some(workload)) => {
            eprintln!(
                "ledger: host {}",
                host::fingerprint_json(args.seed, args.seconds)
            );
            run::single(workload, args.seed, args.seconds, trace).map(|r| r.to_json(trace))
        }
        (Some(_), None) => Err("--trace needs --workload".to_string()),
        (None, _) => ledger(&args),
    };
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lowino-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
