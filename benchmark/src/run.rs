//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use lowino::Algorithm;

use crate::conv::{self, ConvWorkload};
use crate::host;
use crate::model::{self, ModelWorkload};
use crate::probes::{self, Metrics};
use crate::serve;
use crate::spans::{self, SpanTable};
use crate::spec;
use crate::stats::{median, percentile_ms, OpResult, Window};

/// Set-ups per untraced run; `setup_s` is their median. At least
/// `SETUP_REPS`; a workload that sets up in a fraction of a second repeats,
/// an odd number of times, until `SETUP_FILL_S` is spent or `SETUP_REPS_MAX`
/// is reached, because a 0.1 s set-up is one host hiccup away from 0.2 s.
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 11;
const SETUP_FILL_S: f64 = 1.5;
/// Shares of `--seconds` the traced run gives its three stretches: tracing
/// off (the overhead base), tracing on, and one thread (or two shards).
const PLAIN_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.4;
const SCALING_SHARE: f64 = 0.2;
/// Ops per recording chunk of a closed-loop traced stretch.
const CHUNK_OPS: usize = 8;

pub struct RunResult {
    /// Every output check passed (refused requests are failures, not
    /// incorrect outputs).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The contract's result object: every declared metric of the run's
    /// kind by name, with its unit. A per-layer metric this workload does
    /// not exercise reads 0.
    pub fn to_json(&self, trace: bool) -> String {
        let declared = if trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        for (name, _) in &self.metrics {
            assert!(
                declared.iter().any(|m| m.name == *name),
                "undeclared metric {name}"
            );
        }
        let body: Vec<String> = declared
            .iter()
            .map(|m| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v);
                assert!(
                    trace || value.is_some(),
                    "end-to-end metric {} not measured",
                    m.name
                );
                // JSON has no infinity: a latency nothing met reads 1e18.
                let value = value.unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 1e18 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}

pub fn single(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    match (workload, trace) {
        ("serve_poisson", false) => serve_untraced(seed, seconds),
        ("serve_poisson", true) => serve_traced(seed, seconds),
        (w, false) if w.starts_with("conv_") => conv_untraced(w, seed, seconds),
        (w, true) if w.starts_with("conv_") => conv_traced(w, seed, seconds),
        (w, false) => model_untraced(w, seed, seconds),
        (w, true) => model_traced(w, seed, seconds),
    }
}

/// Set up `SETUP_REPS` times or more (see there), dropping each instance
/// before the next is built; returns the last instance and the median
/// set-up time in seconds.
fn timed_setups<W>(mut setup: impl FnMut() -> Result<W, String>) -> Result<(W, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    loop {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
        let (n, spent) = (secs.len(), secs.iter().sum::<f64>());
        if n >= SETUP_REPS && n % 2 == 1 && (n >= SETUP_REPS_MAX || spent >= SETUP_FILL_S) {
            break;
        }
    }
    eprintln!("ledger: set-ups took {secs:.3?} s");
    Ok((last.expect("at least one set-up"), median(&mut secs)))
}

/// The eight end-to-end metrics from one untraced window. `ops_per_s` is the
/// window's successful ops per second: `steady_per_second` on a closed
/// loop, wall-clock `per_second` on the open loop, whose rate is its
/// schedule's.
fn end_to_end(
    window: &Window,
    ops_per_s: f64,
    within_limit: u64,
    setup_s: f64,
    out_err_rel: f64,
    macs_per_op: u64,
    images_per_op: u64,
) -> Metrics {
    eprintln!(
        "ledger: {} ops ({} failed) in {:.2} s",
        window.attempted,
        window.failed,
        window.wall.as_secs_f64()
    );
    vec![
        ("latency_ms_p50", window.steady_percentile_ms(0.50)),
        ("latency_ms_p90", window.steady_percentile_ms(0.90)),
        ("gmac_per_s", ops_per_s * macs_per_op as f64 / 1e9),
        ("images_per_s", ops_per_s * images_per_op as f64),
        (
            "ok_share",
            within_limit as f64 / window.attempted.max(1) as f64,
        ),
        ("out_err_rel", out_err_rel),
        ("peak_rss_mib", host::peak_rss_mib()),
        ("setup_s", setup_s),
    ]
}

/// A closed-loop stretch recorded in chunks: the rings are emptied, a
/// `ledger/workload` span wraps `CHUNK_OPS` ops, and the chunk's spans are
/// read into the table before the next chunk starts. The rings keep the
/// last chunk for the trace file.
fn traced_loop(seconds: f64, mut op: impl FnMut(u64) -> OpResult) -> (Window, SpanTable) {
    let mut table = SpanTable::default();
    let mut w = Window::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        SpanTable::begin_chunk();
        {
            let _workload = lowino_trace::span(spans::WORKLOAD);
            for _ in 0..CHUNK_OPS {
                let r = op(w.attempted);
                w.record(r);
            }
        }
        table.collect();
    }
    w.wall = start.elapsed();
    (w, table)
}

fn lookup(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ------------------------------------------------------------------ conv

fn conv_untraced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let threads = host::threads();
    let plan = conv::plan(name);
    let data = conv::oracle(&plan, seed, threads)?;
    let (mut w, setup_s) = timed_setups(|| ConvWorkload::setup(&plan, &data, threads))?;
    let window = Window::closed_loop(seconds, |id| w.op(id));
    let checked = w.check_outputs();
    if let Err(e) = &checked {
        eprintln!("ledger: final output check: {e}");
    }
    Ok(RunResult {
        correct: window.failed == 0 && checked.is_ok(),
        attempted: window.attempted,
        failed: window.failed,
        metrics: end_to_end(
            &window,
            window.steady_per_second(1.0),
            window.ok(),
            setup_s,
            w.out_err_rel,
            plan.direct_macs(),
            plan.images(),
        ),
    })
}

fn conv_traced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let threads = host::threads();
    let mut m = probes::host(threads);
    let (roof, stream) = (
        lookup(&m, "simd.dpbusd_gmacs"),
        lookup(&m, "host.stream_gbs"),
    );
    m.extend(probes::kernels(seed, threads, roof)?);

    let plan = conv::plan(name);
    let data = conv::oracle(&plan, seed, threads)?;
    let mut w = ConvWorkload::setup(&plan, &data, threads)?;
    let plain = Window::closed_loop(PLAIN_SHARE * seconds, |id| w.op(id));
    w.take_stages();
    let (traced, table) = traced_loop(TRACED_SHARE * seconds, |id| w.op(id));
    let stages = w.take_stages();
    let wrote = spans::write_trace_file(name);
    let checked = w.check_outputs();
    let mut scaling = Window::default();
    if threads > 1 {
        w.rethread(1)?;
        scaling = Window::closed_loop(SCALING_SHARE * seconds, |id| w.op(id));
    }
    drop(w);

    // The Fig. 10 split: the stage times every public `execute` returned,
    // per pass, against the pass's wall time from the op spans.
    let ops = traced.attempted as f64;
    let op_ns = table.all(spans::OP);
    let pass_s = op_ns.iter().sum::<u64>() as f64 / 1e9 / op_ns.len().max(1) as f64;
    let (t_in, t_gemm, t_out) = (
        stages.input_transform.as_secs_f64() / ops,
        stages.gemm.as_secs_f64() / ops,
        stages.output_transform.as_secs_f64() / ops,
    );
    let traffic = plan.traffic();
    let xform_gbs = (traffic.input_bytes + traffic.output_bytes) / (t_in + t_out) / 1e9;
    let gemm_gmacs = traffic.gemm_macs / t_gemm / 1e9;
    m.extend([
        ("conv.input_transform_ms", t_in * 1e3),
        ("conv.gemm_ms", t_gemm * 1e3),
        ("conv.output_transform_ms", t_out * 1e3),
        (
            "conv.transform_share",
            (t_in + t_out) / (t_in + t_gemm + t_out),
        ),
        (
            "conv.stage_gap_share",
            1.0 - (t_in + t_gemm + t_out) / pass_s,
        ),
        ("conv.input_gbs", traffic.input_bytes / t_in / 1e9),
        ("conv.output_gbs", traffic.output_bytes / t_out / 1e9),
        ("conv.xform_bw_frac", xform_gbs / stream),
        ("conv.gemm_gmacs", gemm_gmacs),
        ("conv.gemm_roof_frac", gemm_gmacs / (threads as f64 * roof)),
        ("conv.latency_ms_p95", plain.percentile_ms(0.95)),
        ("conv.latency_ms_p99", plain.percentile_ms(0.99)),
        (
            "trace.overhead_share",
            percentile_ms(&op_ns, 0.5) / plain.percentile_ms(0.5) - 1.0,
        ),
    ]);
    if name == "conv_baselines" {
        let per_algo = |algo: Algorithm| {
            let ns: u64 = plan
                .cases
                .iter()
                .enumerate()
                .filter(|(_, c)| c.algo == algo)
                .map(|(i, _)| table.total_ns(spans::CONV_EXECUTE, i as u64))
                .sum();
            ms(ns) / ops
        };
        m.extend([
            ("conv.ms_direct_i8", per_algo(conv::BASELINE_ALGOS[0])),
            ("conv.ms_downscale", per_algo(conv::BASELINE_ALGOS[1])),
            ("conv.ms_upcast", per_algo(conv::BASELINE_ALGOS[2])),
            ("conv.ms_wino_f32", per_algo(conv::BASELINE_ALGOS[3])),
            ("core.select_regret", conv::select_regret(&data, threads)?),
        ]);
    }
    if threads > 1 {
        m.push((
            "parallel.speedup_t2",
            scaling.percentile_ms(0.5) / plain.percentile_ms(0.5),
        ));
    }
    let failed = plain.failed + traced.failed + scaling.failed;
    Ok(RunResult {
        correct: failed == 0 && checked.is_ok() && wrote,
        attempted: plain.attempted + traced.attempted + scaling.attempted,
        failed,
        metrics: m,
    })
}

// ----------------------------------------------------------------- model

fn model_untraced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let threads = host::threads();
    let plan = model::plan(name);
    let mut oracle = model::oracle(&plan, seed);
    let (macs, images) = (
        oracle.direct_macs(),
        (oracle.models.len() * plan.batch) as u64,
    );
    let (mut w, setup_s) = timed_setups(|| ModelWorkload::setup(&plan, &mut oracle, threads))?;
    let window = Window::closed_loop(seconds, |id| w.op(id));
    Ok(RunResult {
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics: end_to_end(
            &window,
            window.steady_per_second(1.0),
            window.ok(),
            setup_s,
            w.out_err_rel,
            macs,
            images,
        ),
    })
}

fn model_traced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let threads = host::threads();
    let mut m = probes::host(threads);
    let plan = model::plan(name);
    let mut oracle = model::oracle(&plan, seed);
    let mut w = ModelWorkload::setup(&plan, &mut oracle, threads)?;
    let plain = Window::closed_loop(PLAIN_SHARE * seconds, |id| w.op(id));
    let (traced, table) = traced_loop(TRACED_SHARE * seconds, |id| w.op(id));
    let wrote = spans::write_trace_file(name);

    // Graph time from the ledger's spans around `CompiledGraph::execute`,
    // against the same convs run alone.
    let graph_ms: f64 = (0..w.graphs.len() as u64)
        .map(|g| percentile_ms(table.get(spans::GRAPH_EXECUTE, g), 0.5))
        .sum();
    let conv_sum_ms = model::conv_sum_ms(&oracle.conv_shapes, &w.conv_algorithms(), seed, threads)?;
    m.extend([
        ("nn.compile_ms", w.compile_ms),
        ("nn.plan_bytes", w.plan_bytes() as f64),
        ("nn.demotions", w.demotions() as f64),
        ("nn.graph_ms_p50", graph_ms),
        (
            "nn.gmacs",
            oracle.direct_macs() as f64 / (graph_ms / 1e3) / 1e9,
        ),
        ("nn.conv_sum_ms", conv_sum_ms),
        ("nn.bookkeeping_share", 1.0 - conv_sum_ms / graph_ms),
        (
            "core.resilient_overhead_share",
            model::resilient_overhead_share(seed, threads)?,
        ),
        (
            "trace.overhead_share",
            percentile_ms(&table.all(spans::OP), 0.5) / plain.percentile_ms(0.5) - 1.0,
        ),
    ]);
    drop(w);
    let mut scaling = Window::default();
    if threads > 1 {
        let mut w1 = ModelWorkload::setup(&plan, &mut oracle, 1)?;
        scaling = Window::closed_loop(SCALING_SHARE * seconds, |id| w1.op(id));
        m.push((
            "parallel.speedup_t2",
            scaling.percentile_ms(0.5) / plain.percentile_ms(0.5),
        ));
    }
    let failed = plain.failed + traced.failed + scaling.failed;
    Ok(RunResult {
        correct: failed == 0 && wrote,
        attempted: plain.attempted + traced.attempted + scaling.attempted,
        failed,
        metrics: m,
    })
}

// ----------------------------------------------------------------- serve

fn serve_untraced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let oracle = serve::oracle(seed)?;
    let (mut serving, setup_s) = timed_setups(|| oracle.start(1, None))?;
    let load = serving.drive(&oracle, seed, seconds);
    let stats = serving.shutdown();
    let gap = serve::accounting_gap(&stats);
    if gap != 0.0 {
        eprintln!("ledger: server accounting gap {gap}: {stats:?}");
    }
    let window = &load.window;
    Ok(RunResult {
        correct: load.wrong == 0 && gap == 0.0,
        attempted: window.attempted,
        failed: window.failed,
        metrics: end_to_end(
            window,
            window.per_second(1.0),
            window.attempted - load.slo_misses,
            setup_s,
            oracle.out_err_rel,
            oracle.macs_per_image,
            1,
        ),
    })
}

/// Percentile over every request sent, a request without a correct 200
/// counting as slower than any other.
fn percentile_with_failures_ms(window: &Window, q: f64) -> f64 {
    let mut all = window.lat_ns.clone();
    all.sort_unstable();
    all.resize(window.attempted as usize, u64::MAX);
    match lowino_testkit::percentile_ns(&all, q) {
        u64::MAX => f64::INFINITY,
        ns => ms(ns),
    }
}

fn serve_traced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut m = probes::host(host::threads());
    let oracle = serve::oracle(seed)?;
    let log = Arc::new(serve::ModelLog::default());
    let mut serving = oracle.start(1, Some(Arc::clone(&log)))?;
    let plain = serving.drive(&oracle, seed, PLAIN_SHARE * seconds);

    // The traced stretch is one recording: the server's threads are never
    // all idle, so the rings are read once, after shutdown.
    let before = (
        log.busy_ns.load(Ordering::Relaxed),
        log.batches.load(Ordering::Relaxed),
        log.requests.load(Ordering::Relaxed),
    );
    SpanTable::begin_chunk();
    let traced = {
        let _workload = lowino_trace::span(spans::WORKLOAD);
        serving.drive(&oracle, seed, TRACED_SHARE * seconds)
    };
    let busy_s = (log.busy_ns.load(Ordering::Relaxed) - before.0) as f64 / 1e9;
    let batches = (log.batches.load(Ordering::Relaxed) - before.1) as f64;
    let requests = (log.requests.load(Ordering::Relaxed) - before.2) as f64;
    let healthz_rtt_us = serving.healthz_rtt_us()?;
    let stats = serving.shutdown();
    let mut table = SpanTable::default();
    table.collect();
    let wrote = spans::write_trace_file("serve_poisson");

    let request_p50 = percentile_ms(&table.all(spans::REQUEST), 0.5);
    let model_p50 = percentile_ms(&table.all(spans::MODEL_INFER), 0.5);
    let gap = serve::accounting_gap(&stats);
    m.extend([
        (
            "serve.latency_ms_p99",
            percentile_with_failures_ms(&plain.window, 0.99),
        ),
        (
            "serve.latency_ms_p999",
            percentile_with_failures_ms(&plain.window, 0.999),
        ),
        (
            "serve.slo_miss_share",
            plain.slo_misses as f64 / plain.window.attempted.max(1) as f64,
        ),
        ("serve.model_ms_p50", model_p50),
        ("serve.nonmodel_ms_p50", request_p50 - model_p50),
        (
            "serve.batch_occupancy",
            requests / batches.max(1.0) / serve::MAX_BATCH as f64,
        ),
        (
            "serve.shard_busy_share",
            busy_s / traced.window.wall.as_secs_f64(),
        ),
        ("serve.healthz_rtt_us", healthz_rtt_us),
        (
            "serve.send_late_ms_p99",
            percentile_ms(&plain.send_late_ns, 0.99),
        ),
        ("serve.accounting_gap", gap),
        ("serve.shed_504", stats.timed_out as f64),
        ("serve.rejected_503", stats.rejected as f64),
        (
            "trace.overhead_share",
            traced.window.percentile_ms(0.5) / plain.window.percentile_ms(0.5) - 1.0,
        ),
    ]);

    // The same offered load on two shards (one thread each).
    let mut two = oracle.start(2, None)?;
    let scaled = two.drive(&oracle, seed, SCALING_SHARE * seconds);
    let stats2 = two.shutdown();
    m.push((
        "serve.s2_p50_ratio",
        scaled.window.percentile_ms(0.5) / plain.window.percentile_ms(0.5),
    ));

    let loads = [&plain, &traced, &scaled];
    Ok(RunResult {
        correct: loads.iter().all(|l| l.wrong == 0)
            && gap == 0.0
            && serve::accounting_gap(&stats2) == 0.0
            && wrote,
        attempted: loads.iter().map(|l| l.window.attempted).sum(),
        failed: loads.iter().map(|l| l.window.failed).sum(),
        metrics: m,
    })
}
