//! Fork-join schedule bench backing the single-fork-join refactor: whole
//! layer time of the fused `LoWinoConv::execute` (one phased pool job, all
//! scratch drawn from the persistent per-worker arenas) against the
//! retained `execute_three_fork_join` reference path (one pool wake/park
//! per stage, per-call scratch allocation) on small-spatial Table 2 layers
//! at several thread counts.
//!
//! Small-spatial layers are where the schedule matters most: stage bodies
//! are short, so the fixed wake/park + allocation cost of three fork-joins
//! is a visible fraction of the layer. Batch sizes are scaled down
//! (`batch_div`) for CI-sized hosts, same convention as the `layers`
//! bench.
//!
//! The `schedule/*` rows put LoWino's two schedules side by side on one
//! `conv_wide`-shaped layer and one `model_wide`-stem-shaped layer: the
//! same executor on a context whose cache model reports no L2 (staged: `V`
//! and `Z` round-trip through whole-layer panels) and on the host's
//! detected one (depth-first over L2-resident tile blocks, where the layer
//! qualifies). A regression to the round trip shows as the two rows
//! reading the same.
//!
//! Run with `cargo bench --bench forkjoin`; set
//! `LOWINO_BENCH_JSON=<path>` to accumulate the JSON-line log and
//! `LOWINO_BENCH_SMOKE=1` for a seconds-long CI smoke configuration.

use lowino_bench::layers::layer_by_name;
use lowino_bench::{synth_input, synth_weights};
use lowino_conv::{calibrate_winograd_domain, ConvContext, ConvExecutor, LoWinoConv};
use lowino_gemm::CacheModel;
use lowino_tensor::{BlockedImage, ConvShape};
use lowino_testkit::{black_box, BenchGroup};
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

fn bench_layer(name: &str, batch_div: usize, hw_div: usize, m: usize, cfg: &Config) {
    let layer = layer_by_name(name).expect("Table 2 layer");
    let spec = layer.shape(batch_div, hw_div);
    let threads: &[usize] = if cfg.smoke { &[1, 2] } else { &[1, 2, 4] };
    bench_spec(name, spec, m, threads, cfg);
}

fn bench_spec(name: &str, spec: lowino_tensor::ConvShape, m: usize, threads: &[usize], cfg: &Config) {
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let cal = calibrate_winograd_domain(&spec, m, std::slice::from_ref(&input))
        .expect("winograd-domain calibration");
    let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());

    for &t in threads {
        let mut ctx = ConvContext::new(t);
        let mut conv = LoWinoConv::new(spec, m, &weights, cal).expect("plan LoWino layer");

        let mut group = BenchGroup::new(format!("forkjoin/{name}/t{t}"));
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
        group.throughput_elements(spec.direct_macs());

        group.bench_function("fused", || {
            let timings = conv.execute(&input, &mut out, &mut ctx).expect("bench rep");
            black_box(timings.total());
        });
        group.bench_function("three_fork_join", || {
            let timings = conv.execute_three_fork_join(&input, &mut out, &mut ctx);
            black_box(timings.total());
        });
    }
}

/// Staged vs depth-first on one layer: same executor type, same pool size,
/// only the context's cache model differs (see the module docs).
fn bench_schedules(name: &str, spec: ConvShape, m: usize, cfg: &Config) {
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let cal = calibrate_winograd_domain(&spec, m, std::slice::from_ref(&input))
        .expect("winograd-domain calibration");
    let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
    let detected = CacheModel::detect();
    let mut group = BenchGroup::new(format!("schedule/{name}/t2"));
    if cfg.smoke {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60))
            .warm_up_time(Duration::from_millis(20));
    } else {
        group
            .sample_size(15)
            .measurement_time(Duration::from_secs(3))
            .warm_up_time(Duration::from_millis(300));
    }
    group.throughput_elements(spec.direct_macs());
    for cache in [CacheModel { l2_bytes: 0, ..detected }, detected] {
        let mut ctx = ConvContext::new(2);
        ctx.cache = cache;
        let mut conv = LoWinoConv::new(spec, m, &weights, cal).expect("plan LoWino layer");
        conv.execute(&input, &mut out, &mut ctx).expect("warm-up");
        // A depth-first layer never allocates the whole-layer panels.
        let row = if conv.v_panel().is_some() { "staged" } else { "chained" };
        group.bench_function(row, || {
            let timings = conv.execute(&input, &mut out, &mut ctx).expect("bench rep");
            black_box(timings.total());
        });
    }
}

fn main() {
    lowino_trace::init_from_env();
    let cfg = Config::from_env();
    let valid = |spec: ConvShape| spec.validate().expect("bench shape");
    if cfg.smoke {
        // One tiny layer, enough to prove both paths build and run.
        bench_layer("GoogLeNet_c", 64, 1, 4, &cfg);
        bench_schedules("wide128x40", valid(ConvShape::same(1, 128, 128, 40, 3)), 4, &cfg);
        bench_schedules("stem3x32", valid(ConvShape::same(4, 3, 128, 32, 3)), 2, &cfg);
        lowino_trace::flush_to_env();
        return;
    }
    // FusionNet_a at half size (the ledger's `conv_wide` lead layer) and
    // the 3 → 128 stem of the `model_wide` graphs.
    bench_schedules("wide128x160", valid(ConvShape::same(1, 128, 128, 160, 3)), 4, &cfg);
    bench_schedules("stem3x32", valid(ConvShape::same(4, 3, 128, 32, 3)), 2, &cfg);
    // Small-spatial layers (short stage bodies → schedule-dominated), one
    // medium-spatial control. Batch scaled for 1–4 core CI hosts.
    bench_layer("ResNet-50_c", 16, 1, 4, &cfg); // 7×7, K=512
    bench_layer("GoogLeNet_c", 16, 1, 4, &cfg); // 7×7, K=384
    bench_layer("ResNet-50_b", 16, 1, 4, &cfg); // 14×14, K=256
    bench_layer("VGG16_c", 32, 1, 4, &cfg); // 16×16, K=512 (control)
    // Scheduler-skew case: 27×27 with m=4 gives a 7×7 = 49-tile grid, so
    // at t8 the static partition is maximally ragged (49 = 8·6 + 1) and
    // the bounded work-stealing pop path is what evens it out. t8 also
    // oversubscribes small CI hosts — the case doubles as a measurement of
    // how the dynamic schedule degrades when threads > cores.
    let skew = lowino_tensor::ConvShape::same(1, 64, 96, 27, 3)
        .validate()
        .expect("skewed shape");
    bench_spec("skew27", skew, 4, &[1, 8], &cfg);
    lowino_trace::flush_to_env();
}
