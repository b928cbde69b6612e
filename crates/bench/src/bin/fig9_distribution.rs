//! Regenerates paper **Figure 9**: the distribution of transformed-input
//! INT8 values under the down-scaling approach vs LoWino, for a VGG16_a
//! `F(4×4, 3×3)` layer.
//!
//! The down-scaling path quantizes in the spatial domain, transforms in
//! integers (range grows ~100×) and multiplies by `α = 1/100` with
//! rounding — so the surviving INT8 values huddle in a narrow band around
//! zero. LoWino transforms in FP32 and quantizes *after* amplification, so
//! the full `[-127, 127]` range is used. The harness prints the histogram
//! (log-scale sketch) plus summary statistics for both.
//!
//! ```text
//! cargo run -p lowino-bench --release --bin fig9_distribution -- \
//!     [--hw-div 2] [--m 4]
//! ```

use lowino::prelude::*;
use lowino::{calibrate_spatial, calibrate_winograd_domain};
use lowino_bench::layers::layer_by_name;
use lowino_bench::runner::arg;
use lowino_bench::synth_input;
use lowino_tensor::LANES;
use lowino_winograd::{range_growth_2d, TileTransformer};

fn sketch(counts: &[u64; 256]) -> String {
    // 32 buckets of 8 values, log-scale bar heights 0..8.
    let mut out = String::new();
    let max = *counts.iter().max().unwrap() as f64;
    for bucket in 0..32 {
        let s: u64 = counts[bucket * 8..(bucket + 1) * 8].iter().sum();
        let h = if s == 0 {
            0
        } else {
            (((s as f64).ln() / max.ln().max(1.0)) * 8.0).ceil() as usize
        };
        out.push_str(&format!(
            "{:>4} {}\n",
            bucket as i32 * 8 - 128,
            "#".repeat(h.max(usize::from(s > 0)))
        ));
    }
    out
}

fn stats(counts: &[u64; 256]) -> (usize, f64, i32, i32) {
    let total: u64 = counts.iter().sum();
    let distinct = counts.iter().filter(|&&c| c > 0).count();
    let zero_frac = counts[128] as f64 / total as f64;
    let lo = counts.iter().position(|&c| c > 0).unwrap() as i32 - 128;
    let hi = counts.iter().rposition(|&c| c > 0).unwrap() as i32 - 128;
    (distinct, zero_frac, lo, hi)
}

fn main() {
    lowino_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let hw_div: usize = arg(&args, "--hw-div", 2);
    let m: usize = arg(&args, "--m", 4);

    let layer = layer_by_name("VGG16_a").unwrap();
    let spec = {
        let mut s = layer.shape(64, hw_div); // batch 1
        s.batch = 1;
        s
    };
    let input = BlockedImage::from_nchw(&synth_input(&spec, 7));
    let tt = TileTransformer::new(m, spec.r).expect("transformer");
    let geom = spec.tiles(m).expect("tiles");
    let n = geom.n;
    let growth = range_growth_2d(m, spec.r).unwrap() as f32;

    let spatial = calibrate_spatial(std::slice::from_ref(&input)).unwrap();
    let wd = calibrate_winograd_domain(&spec, m, std::slice::from_ref(&input)).unwrap();

    let mut down = [0u64; 256];
    let mut lowino_hist = [0u64; 256];
    let mut scratch = tt.make_scratch(LANES);
    let mut patch = vec![0f32; n * n * LANES];
    let mut patch_q = vec![0i32; n * n * LANES];
    let mut v_int = vec![0i32; n * n * LANES];
    let mut v_f32 = vec![0f32; n * n * LANES];

    for tile in 0..geom.total {
        let (b, ty, tx) = lowino_conv::tiles::tile_coords(&geom, tile);
        let (y0, x0) = lowino_conv::tiles::tile_origin(&spec, &geom, ty, tx);
        for cb in 0..input.c_blocks() {
            lowino_conv::tiles::gather_patch(&input, b, cb, y0, x0, n, &mut patch);
            // Down-scaling: spatial INT8 -> integer transform -> α·round.
            for (q, &s) in patch_q.iter_mut().zip(patch.iter()) {
                *q = i32::from(lowino_simd::saturate_to_i8(s * spatial.alpha));
            }
            tt.input_tile_i32(&patch_q, &mut v_int, &mut scratch);
            for &v in v_int.iter() {
                let q = lowino_simd::saturate_to_i8((v as f32 / growth).round());
                down[(i32::from(q) + 128) as usize] += 1;
            }
            // LoWino: FP32 transform -> Winograd-domain quantization.
            tt.input_tile_f32(&patch, &mut v_f32, &mut scratch);
            for &v in v_f32.iter() {
                let q = lowino_simd::saturate_to_i8(v * wd.alpha);
                lowino_hist[(i32::from(q) + 128) as usize] += 1;
            }
        }
    }

    println!("== Figure 9: transformed-input INT8 value distribution ==");
    println!(
        "layer VGG16_a (scaled hw/{hw_div}), F({m}x{m},3x3); growth = {growth:.0}x, \
         down-scale α = 1/{growth:.0}\n"
    );
    for (name, h) in [("down-scaling", &down), ("LoWino", &lowino_hist)] {
        let (distinct, zf, lo, hi) = stats(h);
        println!(
            "{name}: {distinct}/255 distinct INT8 values used, {:.1}% exactly 0, range [{lo}, {hi}]",
            zf * 100.0
        );
    }
    println!("\ndown-scaling histogram (log scale):");
    print!("{}", sketch(&down));
    println!("\nLoWino histogram (log scale):");
    print!("{}", sketch(&lowino_hist));
    println!(
        "\n(paper Fig. 9: the down-scaled values survive only in a narrow integer band\n\
         around zero, while LoWino uses the full [-128, 127] range.)"
    );
    lowino_trace::flush_to_env();
}
