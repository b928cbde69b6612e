//! §4.3.4: auto-tunes the GEMM blocking parameters for representative
//! Winograd GEMM shapes and writes the wisdom file.
//!
//! ```text
//! cargo run -p lowino-bench --release --bin tune_gemm -- \
//!     [--reps 3] [--threads 1] [--wisdom lowino_wisdom.txt] [--top 5] [--full 0|1]
//! ```
//!
//! By default only the cost model's top-K candidates are measured
//! (Autotuner 2.0); `--full 1` sweeps the whole candidate lattice.
//!
//! This is the one program that writes wisdom; engines only read it
//! (`LOWINO_WISDOM`). New winners are added to the file's entries. A file
//! that does not parse is left untouched and the run exits 1 with the
//! parse error, before anything is measured; a missing file starts empty.

use lowino_bench::runner::arg;
use lowino_bench::Table;
use lowino_gemm::{tune_blocking, tune_blocking_full, GemmShape, Wisdom};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

fn main() {
    lowino_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: usize = arg(&args, "--reps", 3);
    let threads: usize = arg(&args, "--threads", 1);
    let top: usize = arg(&args, "--top", 5);
    let full: usize = arg(&args, "--full", 0);
    let wisdom_path: String = arg(&args, "--wisdom", "lowino_wisdom.txt".to_string());

    // Representative stage-② shapes: (VGG16_b, ResNet-50_c, YOLOv3_c) under
    // F(2,3) and F(4,3), batch scaled to 4.
    let shapes = vec![
        ("VGG16_b F(2,3)", GemmShape { t: 16, n: 4 * 15 * 15, c: 512, k: 512 }),
        ("VGG16_b F(4,3)", GemmShape { t: 36, n: 4 * 8 * 8, c: 512, k: 512 }),
        ("ResNet-50_c F(4,3)", GemmShape { t: 36, n: 4 * 2 * 2, c: 512, k: 512 }),
        ("YOLOv3_c F(4,3)", GemmShape { t: 36, n: 4 * 4, c: 256, k: 512 }),
    ];

    let mut wisdom = match Wisdom::load(std::path::Path::new(&wisdom_path)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tune_gemm: {wisdom_path}: {e} (file left untouched)");
            std::process::exit(1);
        }
    };
    let tier = SimdTier::detect();
    let mut pool = StaticPool::new(threads);

    println!("== §4.3.4 auto-tuning (tier {tier}, {threads} thread(s)) ==\n");
    for (name, shape) in shapes {
        println!("{name}: T={} N={} C={} K={}", shape.t, shape.n, shape.c, shape.k);
        let (best, mut log) = if full != 0 {
            tune_blocking_full(tier, &shape, &mut pool, reps)
        } else {
            tune_blocking(tier, &shape, &mut pool, reps)
        };
        log.sort_by_key(|m| m.time);
        let mut table = Table::new(vec!["rank", "blocking", "time", "GMAC/s"]);
        for (i, m) in log.iter().take(top).enumerate() {
            let gmacs = shape.macs() as f64 / m.time.as_secs_f64() / 1e9;
            table.row(vec![
                format!("{}", i + 1),
                format!(
                    "N{} C{} K{} r{}xc{}",
                    m.blocking.n_blk, m.blocking.c_blk, m.blocking.k_blk,
                    m.blocking.row_blk, m.blocking.col_blk
                ),
                lowino_bench::report::fmt_duration(m.time),
                format!("{gmacs:.1}"),
            ]);
        }
        let worst = log.last().unwrap();
        let ratio = worst.time.as_secs_f64() / log[0].time.as_secs_f64();
        print!("{}", table.render());
        println!(
            "  best {:?}; worst candidate is {ratio:.2}x slower\n",
            best
        );
        wisdom.insert(tier, &shape, best);
    }
    wisdom
        .save(std::path::Path::new(&wisdom_path))
        .expect("save wisdom");
    println!("wisdom saved to {wisdom_path} ({} entries)", wisdom.len());
    lowino_trace::flush_to_env();
}
