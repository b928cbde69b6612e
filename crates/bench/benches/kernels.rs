//! Micro-benchmarks of the computational primitives: the `vpdpbusd` tiers
//! (the SIMD-tier ablation at instruction level), the INT16 sibling, the
//! Winograd transform codelets, the quantization kernels, and the whole
//! batched GEMM over each of its three element types.
//!
//! Run with `cargo bench --bench kernels`; set
//! `LOWINO_BENCH_JSON=BENCH_kernels.json` to accumulate a JSON-line log and
//! `LOWINO_BENCH_SMOKE=1` for a seconds-long CI smoke configuration.

use lowino_gemm::{
    Element, GemmCostModel, GemmShape, GemmTasks, UPanel, UPanelF32, UPanelI16, VPanel, VPanelF32,
    VPanelI16, ZPanel, ZPanelF32,
};
use lowino_parallel::StaticPool;
use lowino_simd::{dpbusd, dpwssd, quantize_f32_lanes_i8, SimdTier};
use lowino_testkit::{black_box, BenchGroup};
use lowino_winograd::TileTransformer;
use std::time::Duration;

fn group(name: &str) -> BenchGroup {
    let smoke = std::env::var("LOWINO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (measure, warm_up) = if smoke { (100, 20) } else { (1000, 200) };
    let mut g = BenchGroup::new(name);
    g.sample_size(if smoke { 5 } else { 20 })
        .measurement_time(Duration::from_millis(measure))
        .warm_up_time(Duration::from_millis(warm_up));
    g
}

fn bench_dpbusd_tiers() {
    let mut group = group("dpbusd");
    let a = [77u8; 64];
    let b = [-13i8; 64];
    // 64 MACs per call.
    group.throughput_elements(64);
    for tier in SimdTier::available() {
        let mut acc = [0i32; 16];
        group.bench_function(tier, || {
            dpbusd(tier, &mut acc, &a, &b);
            black_box(acc[0]);
        });
    }
}

fn bench_dpwssd() {
    let mut group = group("dpwssd");
    let a = [1234i16; 32];
    let b = [-567i16; 32];
    // 32 MACs per call — half of dpbusd: the up-casting penalty.
    group.throughput_elements(32);
    for tier in SimdTier::available() {
        let mut acc = [0i32; 16];
        group.bench_function(tier, || {
            dpwssd(tier, &mut acc, &a, &b);
            black_box(acc[0]);
        });
    }
}

fn bench_transform_codelets() {
    let mut group = group("input_transform_64lanes");
    for m in [2usize, 4, 6] {
        let tt = TileTransformer::new(m, 3).unwrap();
        let n = tt.n();
        let lanes = 64;
        let d = vec![0.5f32; n * n * lanes];
        let mut v = vec![0f32; n * n * lanes];
        let mut scratch = tt.make_scratch(lanes);
        group.throughput_elements((n * n * lanes) as u64);
        group.bench_function(format!("F({m},3)"), || {
            tt.input_tile_f32(&d, &mut v, &mut scratch);
            black_box(v[0]);
        });
    }
}

fn bench_quantize() {
    let mut group = group("quantize_64lanes");
    let src = vec![0.37f32; 64];
    let mut dst = vec![0u8; 64];
    group.throughput_elements(64);
    group.bench_function("f32_to_u8_compensated", || {
        quantize_f32_lanes_i8(&src, 42.3, true, &mut dst);
        black_box(dst[0]);
    });
}

/// The whole stage-② GEMM of YOLOv3_b at F(4,3) (`T = 36, N = 64,
/// C = 128, K = 256`), 2 threads, through the one driver on each element
/// type's seed blocking: a word holds 4 u8, 2 i16 or 1 f32 channels, so the
/// i16 row reads ≈ 2× and the f32 row ≈ 4–5× the u8×i8 one — the paper's
/// "half throughput" charge on up-casting (§2.3) and its FP32 gap (§2.1).
fn bench_gemm_elements() {
    let tier = SimdTier::detect();
    let shape = GemmShape { t: 36, n: 64, c: 128, k: 256 };
    let GemmShape { t, n, c, k } = shape;
    let seed = |elem| GemmCostModel::new().seed(tier, &shape.as_u8i8(elem));
    let mut pool = StaticPool::new(2);
    let mut group = group("gemm");
    group.throughput_elements(shape.macs());

    let (v, mut u, mut z) = (VPanel::new(t, n, c), UPanel::new(t, c, k), ZPanel::new(t, n, k));
    u.finalize_compensation();
    let tasks = GemmTasks::plan(tier, &shape, &seed(Element::U8I8), &v, &u, &mut z);
    group.bench_function("u8i8/yolo_b_f4", || tasks.run(&mut pool));

    let (v, u, mut z) = (VPanelI16::new(t, n, c), UPanelI16::new(t, c, k), ZPanel::new(t, n, k));
    let tasks = GemmTasks::plan_i16(tier, &shape, &seed(Element::I16), &v, &u, &mut z);
    group.bench_function("i16/yolo_b_f4", || tasks.run(&mut pool));

    let (v, u, mut z) = (VPanelF32::new(t, n, c), UPanelF32::new(t, c, k), ZPanelF32::new(t, n, k));
    let tasks = GemmTasks::plan_f32(tier, &shape, &seed(Element::F32), &v, &u, &mut z);
    group.bench_function("f32/yolo_b_f4", || tasks.run(&mut pool));
}

fn main() {
    bench_dpbusd_tiers();
    bench_dpwssd();
    bench_transform_codelets();
    bench_quantize();
    bench_gemm_elements();
}
