//! The ledger's vocabulary: every workload and metric name, with unit,
//! direction and (for end-to-end metrics) regression bound. This table is
//! the single source of `../BENCHMARK.json` — regenerate that file with
//! `benchmark/run.sh --spec > BENCHMARK.json` after editing here.

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 12;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "conv_deep",
        why: "LoWino F(4,3) on 384-512-channel Table 2 layers: GEMM is about half the time, so GEMM/VNNI/blocking/tuner work shows here",
    },
    WorkloadSpec {
        name: "conv_wide",
        why: "LoWino F(4,3) on 64-128-channel large-spatial layers: transforms are about 80% (Fig. 10 memory-bound regime); GEMM work should not move it",
    },
    WorkloadSpec {
        name: "conv_baselines",
        why: "DirectInt8, DownScale, UpCast and WinogradF32 on three layers: a LoWino gain or an executor unification that costs a baseline shows here",
    },
    WorkloadSpec {
        name: "model_tiny",
        why: "CompiledGraph of mini_vgg+mini_resnet at width 8 on 8x8 inputs: bookkeeping-bound, so graph/pool overhead work shows and kernel work does not",
    },
    WorkloadSpec {
        name: "model_wide",
        why: "the same two graphs at width 128 on 32x32 inputs: conv-dominated, shows whether layer-level gains survive the graph",
    },
    WorkloadSpec {
        name: "serve_poisson",
        why: "open-loop seeded Poisson load over two in-memory connections on a one-shard server: HTTP, batcher, dispatch and reply costs show only here",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported by every workload in the untraced run. Definitions are in
/// README.md ("End-to-end metrics").
pub const END_TO_END: &[Metric] = &[
    e2e("latency_ms_p50", "ms", "lower", 0.25),
    e2e("latency_ms_p90", "ms", "lower", 0.25),
    e2e("gmac_per_s", "GMAC/s", "higher", 0.25),
    e2e("images_per_s", "1/s", "higher", 0.25),
    e2e("ok_share", "ratio", "higher", 0.05),
    e2e("out_err_rel", "ratio", "lower", 0.20),
    e2e("peak_rss_mib", "MiB", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload in the traced run; a metric a workload does
/// not exercise reads 0 there (README.md lists which workload measures
/// which).
pub const PER_LAYER: &[Metric] = &[
    pl("host.cores", "count", "higher"),
    pl("host.stream_gbs", "GB/s", "higher"),
    pl("simd.dpbusd_gmacs", "GMAC/s", "higher"),
    pl("parallel.forkjoin_us", "us", "lower"),
    pl("parallel.speedup_t2", "ratio", "higher"),
    pl("winograd.input_tile_ns_f2", "ns", "lower"),
    pl("winograd.input_tile_ns_f4", "ns", "lower"),
    pl("winograd.output_tile_ns_f2", "ns", "lower"),
    pl("winograd.output_tile_ns_f4", "ns", "lower"),
    pl("winograd.filter_transform_ms", "ms", "lower"),
    pl("quant.calibrate_ms", "ms", "lower"),
    pl("gemm.gmacs_deep", "GMAC/s", "higher"),
    pl("gemm.gmacs_shallow", "GMAC/s", "higher"),
    pl("gemm.roof_frac_deep", "ratio", "higher"),
    pl("gemm.seed_regret_deep", "ratio", "lower"),
    pl("tensor.from_nchw_gbs", "GB/s", "higher"),
    pl("conv.input_transform_ms", "ms", "lower"),
    pl("conv.gemm_ms", "ms", "lower"),
    pl("conv.output_transform_ms", "ms", "lower"),
    pl("conv.transform_share", "ratio", "lower"),
    pl("conv.stage_gap_share", "ratio", "lower"),
    pl("conv.input_gbs", "GB/s", "higher"),
    pl("conv.output_gbs", "GB/s", "higher"),
    pl("conv.xform_bw_frac", "ratio", "higher"),
    pl("conv.gemm_gmacs", "GMAC/s", "higher"),
    pl("conv.gemm_roof_frac", "ratio", "higher"),
    pl("conv.ms_direct_i8", "ms", "lower"),
    pl("conv.ms_downscale", "ms", "lower"),
    pl("conv.ms_upcast", "ms", "lower"),
    pl("conv.ms_wino_f32", "ms", "lower"),
    pl("conv.latency_ms_p95", "ms", "lower"),
    pl("conv.latency_ms_p99", "ms", "lower"),
    pl("core.select_regret", "ratio", "lower"),
    pl("core.resilient_overhead_share", "ratio", "lower"),
    pl("nn.compile_ms", "ms", "lower"),
    pl("nn.plan_bytes", "bytes", "lower"),
    pl("nn.demotions", "count", "lower"),
    pl("nn.graph_ms_p50", "ms", "lower"),
    pl("nn.gmacs", "GMAC/s", "higher"),
    pl("nn.conv_sum_ms", "ms", "lower"),
    pl("nn.bookkeeping_share", "ratio", "lower"),
    pl("serve.latency_ms_p99", "ms", "lower"),
    pl("serve.latency_ms_p999", "ms", "lower"),
    pl("serve.slo_miss_share", "ratio", "lower"),
    pl("serve.model_ms_p50", "ms", "lower"),
    pl("serve.nonmodel_ms_p50", "ms", "lower"),
    pl("serve.batch_occupancy", "ratio", "higher"),
    pl("serve.shard_busy_share", "ratio", "lower"),
    pl("serve.healthz_rtt_us", "us", "lower"),
    pl("serve.send_late_ms_p99", "ms", "lower"),
    pl("serve.accounting_gap", "count", "lower"),
    pl("serve.shed_504", "count", "lower"),
    pl("serve.rejected_503", "count", "lower"),
    pl("serve.s2_p50_ratio", "ratio", "lower"),
    pl("trace.overhead_share", "ratio", "lower"),
];

/// `BENCHMARK.json`, exactly the keys the builder's contract names.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        )
    });
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect()),
    )
}
