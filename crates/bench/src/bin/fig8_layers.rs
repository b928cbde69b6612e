//! Regenerates paper **Figure 8**: normalized execution time of the four
//! low-precision implementations over the 20 Table 2 layers, the speedup of
//! LoWino `F(4,3)` over the oneDNN-style Winograd, and the §5.1 comparison
//! against the best FP32 implementation.
//!
//! ```text
//! cargo run -p lowino-bench --release --bin fig8_layers -- \
//!     [--reps 5] [--threads 1] [--batch-div 16] [--hw-div 1] \
//!     [--layer VGG16_b] [--fp32] [--m6]
//! ```
//!
//! Defaults divide the paper's batch-64 classification layers by
//! `--batch-div` so a sweep takes minutes (the per-layer *shape* of the
//! comparison is batch-invariant because every implementation processes the
//! same tiles). Absolute times are reported alongside the normalized ones.

use lowino::prelude::*;
use lowino_bench::report::fmt_duration;
use lowino_bench::runner::{arg, has_flag};
use lowino_bench::{
    build_executor, label, paper_layers, run_timed, synth_input, synth_weights, Table,
};

fn main() {
    lowino_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: u32 = arg(&args, "--reps", 3);
    let threads: usize = arg(&args, "--threads", 1);
    let batch_div: usize = arg(&args, "--batch-div", 16);
    let hw_div: usize = arg(&args, "--hw-div", 1);
    let only: String = arg(&args, "--layer", String::new());
    let with_fp32 = has_flag(&args, "--fp32");
    let with_m6 = has_flag(&args, "--m6");

    let mut algos = vec![
        Algorithm::DirectInt8,
        Algorithm::DownScale { m: 2 },
        Algorithm::LoWino { m: 2 },
        Algorithm::LoWino { m: 4 },
    ];
    if with_m6 {
        algos.push(Algorithm::LoWino { m: 6 });
    }
    if with_fp32 {
        // The paper compares against "the best full-precision implementation
        // in oneDNN"; our best FP32 implementations are the blocked Winograd
        // paths (the naive FP32 direct reference is for correctness only).
        algos.push(Algorithm::WinogradF32 { m: 2 });
        algos.push(Algorithm::WinogradF32 { m: 4 });
    }

    println!("== Figure 8: normalized execution time per layer ==");
    println!(
        "(scaled: batch/{batch_div}, spatial/{hw_div}; {reps} reps; {threads} thread(s); \
         normalized to the oneDNN-like INT8 Winograd F(2x2))\n"
    );

    let mut header: Vec<String> = vec!["layer".into()];
    header.extend(algos.iter().copied().map(label));
    header.push("LoWino F4 speedup".into());
    let mut table = Table::new(header);

    let mut speedups = Vec::new();
    let mut fp32_ratio_f2 = Vec::new();
    let mut fp32_ratio_f4 = Vec::new();

    for layer in paper_layers() {
        if !only.is_empty() && layer.name != only {
            continue;
        }
        let spec = layer.shape(batch_div, hw_div);
        let weights = synth_weights(&spec, 42);
        let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
        let mut engine = Engine::new(threads);
        let mut out = engine.alloc_output(&spec);

        let mut times = Vec::new();
        for &algo in &algos {
            let mut l = match build_executor(algo, &spec, &weights, &input, &engine) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{}: {}: {e}", layer.name, label(algo));
                    times.push(f64::NAN);
                    continue;
                }
            };
            let t = run_timed(&mut l, &input, &mut out, engine.context_mut(), reps);
            times.push(t.total().as_secs_f64());
        }

        // Normalize to the oneDNN-like Winograd F(2,3) (index 1), like the
        // paper's Fig. 8 bars.
        let base = times[1];
        let mut row: Vec<String> = vec![layer.name.into()];
        for (&t, &algo) in times.iter().zip(&algos) {
            if t.is_nan() {
                row.push("n/a".into());
            } else {
                row.push(format!(
                    "{:.2} ({})",
                    t / base,
                    fmt_duration(std::time::Duration::from_secs_f64(t)),
                ));
                let _ = algo;
            }
        }
        let f4 = times[3];
        let speedup = base / f4;
        speedups.push(speedup);
        row.push(format!("{speedup:.2}x"));
        if with_fp32 {
            let fp32 = times[times.len() - 2].min(times[times.len() - 1]);
            fp32_ratio_f2.push(fp32 / times[2]);
            fp32_ratio_f4.push(fp32 / f4);
        }
        table.row(row);
    }

    print!("{}", table.render());

    if !speedups.is_empty() {
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        println!(
            "\nLoWino F(4x4) over oneDNN-like Winograd: average {avg:.2}x, up to {max:.2}x"
        );
        println!("(paper reports: average 1.26x, up to 2.04x on 8-core CLX)");
    }
    if with_fp32 && !fp32_ratio_f2.is_empty() {
        let a2 = fp32_ratio_f2.iter().sum::<f64>() / fp32_ratio_f2.len() as f64;
        let a4 = fp32_ratio_f4.iter().sum::<f64>() / fp32_ratio_f4.len() as f64;
        println!(
            "LoWino vs best FP32: F(2x2) {a2:.2}x, F(4x4) {a4:.2}x  (paper: 1.9x / 2.6x)"
        );
    }
    lowino_trace::flush_to_env();
}
