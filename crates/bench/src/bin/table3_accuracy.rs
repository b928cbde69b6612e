//! Regenerates paper **Table 3**: end-to-end top-1 accuracy of two CNNs
//! under every post-training-quantization scheme.
//!
//! ImageNet and the pre-trained VGG16/ResNet-50 are not available offline;
//! per DESIGN.md the experiment runs on trained-from-scratch MiniVGG /
//! MiniResNet over a synthetic dataset. The *phenomenon* being reproduced
//! is Table 3's ordering:
//!
//! * non-Winograd INT8 (KLD) ≈ FP32,
//! * LoWino F(2,3) ≈ FP32 (and ≥ down-scaling F(2,3)),
//! * **down-scaling F(4,3) collapses to chance** (the paper's 00.00 row),
//! * LoWino F(4,3) stays near FP32.
//!
//! ```text
//! cargo run -p lowino-bench --release --bin table3_accuracy -- \
//!     [--classes 8] [--width 32] [--size 16] [--train 60] [--test 25] \
//!     [--epochs 10] [--threads 1] [--per-position] [--extended]
//! ```

use lowino::prelude::*;
use lowino_bench::runner::{arg, has_flag};
use lowino_bench::Table;
use lowino_nn::{
    evaluate_top1, mini_resnet, mini_vgg, train, CompiledGraph, Dataset, Model, QuantizedSpec,
    SyntheticSpec, TrainConfig,
};

struct Row {
    group: &'static str,
    method: String,
    algo: Algorithm,
    per_position: bool,
}

fn main() {
    lowino_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let classes: usize = arg(&args, "--classes", 8);
    let width: usize = arg(&args, "--width", 32);
    let size: usize = arg(&args, "--size", 16);
    let train_pc: usize = arg(&args, "--train", 60);
    let test_pc: usize = arg(&args, "--test", 25);
    let epochs: usize = arg(&args, "--epochs", 12);
    let threads: usize = arg(&args, "--threads", 1);
    let extended = has_flag(&args, "--extended");

    let data = Dataset::generate(&SyntheticSpec {
        classes,
        channels: 3,
        size,
        train_per_class: train_pc,
        test_per_class: test_pc,
        noise: 0.15,
        seed: 20260704,
    });

    let mut rows = vec![
        Row {
            group: "Non-Winograd",
            method: "KLD INT8 direct".into(),
            algo: Algorithm::DirectInt8,
            per_position: false,
        },
        Row {
            group: "F(2x2,3x3)",
            method: "Down-Scaling (oneDNN-like)".into(),
            algo: Algorithm::DownScale { m: 2 },
            per_position: false,
        },
        Row {
            group: "F(2x2,3x3)",
            method: "LoWino (ours)".into(),
            algo: Algorithm::LoWino { m: 2 },
            per_position: false,
        },
        Row {
            group: "F(4x4,3x3)",
            method: "Down-Scaling Impl.".into(),
            algo: Algorithm::DownScale { m: 4 },
            per_position: false,
        },
        Row {
            group: "F(4x4,3x3)",
            method: "LoWino (ours)".into(),
            algo: Algorithm::LoWino { m: 4 },
            per_position: false,
        },
    ];
    if extended {
        rows.push(Row {
            group: "F(2x2,3x3)",
            method: "Up-Casting (ncnn-like)".into(),
            algo: Algorithm::UpCast { m: 2 },
            per_position: false,
        });
        rows.push(Row {
            group: "F(4x4,3x3)",
            method: "LoWino per-position".into(),
            algo: Algorithm::LoWino { m: 4 },
            per_position: true,
        });
        rows.push(Row {
            group: "F(6x6,3x3)",
            method: "LoWino per-position".into(),
            algo: Algorithm::LoWino { m: 6 },
            per_position: true,
        });
    }

    println!("== Table 3: end-to-end top-1 accuracy (synthetic substitute) ==");
    println!(
        "dataset: {classes} classes, 3x{size}x{size}, {} train / {} test images; \
         models trained from scratch\n",
        classes * train_pc,
        classes * test_pc
    );

    let mut table = Table::new(vec!["model", "method", "FP32 acc (%)", "INT8 acc (%)"]);

    for model_name in ["MiniVGG", "MiniResNet"] {
        let mut model: Model = if model_name == "MiniVGG" {
            mini_vgg(3, width, classes, 11)
        } else {
            mini_resnet(3, width, classes, 13)
        };
        let cfg = TrainConfig {
            epochs,
            batch_size: 16,
            lr: 0.02,
            momentum: 0.9,
            seed: 5,
        };
        eprintln!("training {model_name}...");
        let losses = train(&mut model, &data, &cfg);
        eprintln!("  losses: first {:.3} last {:.3}", losses[0], losses[losses.len() - 1]);
        let fp32_acc = evaluate_top1(&mut model, data.test_x(), data.test_y());

        // ~min(500, all) calibration images, per the paper's §3.
        let calib_n = (data.train_y().len()).min(500);
        let calib = data.gather_batch(&(0..calib_n).collect::<Vec<_>>()).0;

        for row in &rows {
            eprintln!("  quantizing with {} ({})...", row.method, row.group);
            let acc = match CompiledGraph::quantize(
                &mut model,
                &calib,
                &QuantizedSpec {
                    algorithm: row.algo,
                    per_position: row.per_position,
                    batch: 25,
                    threads,
                },
            ) {
                Ok(mut q) => format!("{:.2}", 100.0 * q.evaluate_top1(data.test_x(), data.test_y())),
                Err(e) => format!("n/a ({e})"),
            };
            table.row(vec![
                model_name.to_string(),
                format!("{} {}", row.group, row.method),
                format!("{:.2}", 100.0 * fp32_acc),
                acc,
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nchance level: {:.2}%\n\
         (paper Table 3: LoWino within ~0.6% of FP32 at both tile sizes;\n\
         the down-scaling implementation drops to 0.00% at F(4x4,3x3).)",
        100.0 / classes as f64
    );
    lowino_trace::flush_to_env();
}
