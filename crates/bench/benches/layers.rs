//! Layer-level benches backing paper Fig. 8 and Fig. 10: whole-layer wall
//! time of the compared implementations on representative Table 2 layers
//! (scaled for CI-sized machines; the `fig8_layers`/`fig10_breakdown`
//! binaries run the full sweep and print the paper-style tables).
//!
//! Run with `cargo bench --bench layers`; set
//! `LOWINO_BENCH_JSON=BENCH_layers.json` to accumulate a JSON-line log.

use lowino::prelude::*;
use lowino_bench::layers::layer_by_name;
use lowino_bench::{build_executor, label, synth_input, synth_weights};
use lowino_testkit::{black_box, BenchGroup};
use std::time::Duration;

fn bench_layer(name: &str, batch_div: usize, hw_div: usize) {
    let layer = layer_by_name(name).expect("Table 2 layer");
    let spec = layer.shape(batch_div, hw_div);
    let weights = synth_weights(&spec, 42);
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let mut engine = Engine::new(1);
    let mut out = engine.alloc_output(&spec);

    let mut group = BenchGroup::new(format!("fig8/{name}"));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .throughput_elements(spec.direct_macs());
    for algo in [
        Algorithm::DirectInt8,
        Algorithm::DownScale { m: 2 },
        Algorithm::LoWino { m: 2 },
        Algorithm::LoWino { m: 4 },
    ] {
        let mut l = build_executor(algo, &spec, &weights, &input, &engine).expect("plan");
        group.bench_function(label(algo), || {
            let t = engine.execute(&mut l, &input, &mut out).expect("bench rep");
            black_box(t.total());
        });
    }
}

fn main() {
    // One compute-heavy classification layer, one small-spatial, one
    // batch-1 detection layer, one batch-1 segmentation layer.
    bench_layer("VGG16_c", 32, 1);
    bench_layer("ResNet-50_c", 32, 1);
    bench_layer("YOLOv3_c", 1, 1);
    bench_layer("U-Net_c", 1, 2);
}
