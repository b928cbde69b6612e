//! Regenerates paper **Figure 10**: execution-time breakdown of the
//! low-precision Winograd pipelines into *transformation* (memory-bound,
//! stages ①+③) and *multiplication* (compute-bound, stage ②) for
//! VGG16_b, ResNet-50_c, YOLOv3_c and U-Net_b, comparing the oneDNN-style
//! down-scaling implementation with LoWino `F(2,3)`.
//!
//! Expected shape (paper §5.3): LoWino's transformation share is *larger*
//! (it loads 4× the input bytes — FP32 instead of INT8), while its
//! multiplication time is equal (cache-sized matrices) or smaller (large
//! matrices: YOLOv3_c, U-Net_b).
//!
//! ```text
//! cargo run -p lowino-bench --release --bin fig10_breakdown -- \
//!     [--reps 5] [--threads 1] [--batch-div 16] [--hw-div 1]
//! ```

use lowino::prelude::*;
use lowino_bench::layers::layer_by_name;
use lowino_bench::report::fmt_duration;
use lowino_bench::runner::arg;
use lowino_bench::{build_executor, label, run_timed, synth_input, synth_weights, Table};

fn main() {
    lowino_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: u32 = arg(&args, "--reps", 3);
    let threads: usize = arg(&args, "--threads", 1);
    let batch_div: usize = arg(&args, "--batch-div", 16);
    let hw_div: usize = arg(&args, "--hw-div", 1);

    println!("== Figure 10: transformation vs multiplication breakdown ==");
    println!("(normalized to the oneDNN-like total per layer)\n");

    let mut table = Table::new(vec![
        "layer",
        "impl",
        "multiplication",
        "transformation",
        "total (norm)",
    ]);

    for name in ["VGG16_b", "ResNet-50_c", "YOLOv3_c", "U-Net_b"] {
        let layer = layer_by_name(name).expect("Table 2 layer");
        let spec = layer.shape(batch_div, hw_div);
        let weights = synth_weights(&spec, 42);
        let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
        let mut engine = Engine::new(threads);
        let mut out = engine.alloc_output(&spec);

        let mut results = Vec::new();
        for algo in [Algorithm::DownScale { m: 2 }, Algorithm::LoWino { m: 2 }] {
            let mut l = build_executor(algo, &spec, &weights, &input, &engine)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let t = run_timed(&mut l, &input, &mut out, engine.context_mut(), reps);
            results.push((algo, t));
        }
        let base = results[0].1.total().as_secs_f64();
        for (algo, t) in results {
            table.row(vec![
                name.to_string(),
                label(algo),
                format!(
                    "{:.2} ({})",
                    t.gemm.as_secs_f64() / base,
                    fmt_duration(t.gemm)
                ),
                format!(
                    "{:.2} ({})",
                    t.transform().as_secs_f64() / base,
                    fmt_duration(t.transform())
                ),
                format!("{:.2}", t.total().as_secs_f64() / base),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\n(paper §5.3: LoWino's transformation is costlier — FP32 loads are 4x the bytes —\n\
         while its multiplication matches oneDNN on cache-sized layers and wins on\n\
         large-matrix layers like YOLOv3_c / U-Net_b thanks to bigger GEMM blocks.)"
    );
    lowino_trace::flush_to_env();
}
