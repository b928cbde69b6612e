//! End-to-end post-training quantization of an image classifier — the
//! Table 3 workflow in miniature: train a small CNN, calibrate on
//! unlabelled samples, quantize with different schemes, compare top-1.
//!
//! ```text
//! cargo run --release --example classifier_ptq
//! ```

use lowino::prelude::*;
use lowino_nn::{
    evaluate_top1, mini_vgg, train, CompiledGraph, Dataset, QuantizedSpec, SyntheticSpec,
    TrainConfig,
};

fn main() {
    // 1. A synthetic 6-class dataset (stand-in for ImageNet; see DESIGN.md).
    let data = Dataset::generate(&SyntheticSpec {
        classes: 6,
        channels: 3,
        size: 16,
        train_per_class: 40,
        test_per_class: 15,
        noise: 0.15,
        seed: 99,
    });

    // 2. Train MiniVGG in FP32.
    println!("training MiniVGG...");
    let mut model = mini_vgg(3, 24, 6, 7);
    let losses = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 14,
            batch_size: 16,
            lr: 0.025,
            momentum: 0.9,
            seed: 1,
        },
    );
    println!("  loss: {:.3} -> {:.3}", losses[0], losses[losses.len() - 1]);
    let fp32 = evaluate_top1(&mut model, data.test_x(), data.test_y());
    println!("  FP32 top-1: {:.1}%\n", fp32 * 100.0);

    // 3. Post-training-quantize with each scheme (~ all training images as
    //    the unlabelled calibration set).
    let calib = data
        .gather_batch(&(0..data.train_y().len().min(120)).collect::<Vec<_>>())
        .0;
    for (label, algo) in [
        ("KLD INT8 direct        ", Algorithm::DirectInt8),
        ("Down-scaling F(2x2)    ", Algorithm::DownScale { m: 2 }),
        ("LoWino F(2x2)          ", Algorithm::LoWino { m: 2 }),
        ("Down-scaling F(4x4)    ", Algorithm::DownScale { m: 4 }),
        ("LoWino F(4x4)          ", Algorithm::LoWino { m: 4 }),
    ] {
        let acc = match CompiledGraph::quantize(
            &mut model,
            &calib,
            &QuantizedSpec {
                algorithm: algo,
                per_position: false,
                batch: 30,
                threads: 1,
            },
        ) {
            Ok(mut q) => format!("{:.1}%", 100.0 * q.evaluate_top1(data.test_x(), data.test_y())),
            Err(e) => format!("failed: {e}"),
        };
        println!("{label} top-1: {acc}");
    }
    println!(
        "\nchance = {:.1}%  — expect down-scaling F(4x4) near chance, LoWino near FP32",
        100.0 / 6.0
    );
}
