//! Release-mode guard that the up-casting and FP32 baselines run the real
//! kernel: through the one driver a 32-bit word holds 4 u8, 2 i16 or 1 f32
//! channels, so at equal `(T, N, C, K)` the i16 GEMM issues 2× and the f32
//! GEMM 4× (as multiply + add: 8×) the u8×i8 instructions. Two private
//! row-at-a-time loops used to stand here at 78× and 23×.

use std::time::{Duration, Instant};

use lowino_gemm::{
    Element, GemmCostModel, GemmShape, GemmTasks, UPanel, UPanelF32, UPanelI16, VPanel, VPanelF32,
    VPanelI16, ZPanel, ZPanelF32,
};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

/// On YOLOv3_b's F(4,3) stage-② shape, 2 threads, each element on the cost
/// model's seed for its word-equivalent shape: i16 ≤ 4× and f32 ≤ 8× the
/// u8×i8 time. Interleaved best-of, so a noisy phase of the host hits all
/// three alike. Timing-sensitive, so `#[ignore]`d under the plain (debug)
/// test run and executed release-mode by `ci/check.sh`.
#[test]
#[ignore = "timing-sensitive; run release-mode via ci/check.sh"]
fn i16_and_f32_gemms_stay_within_their_instruction_ratio_of_u8i8() {
    let tier = SimdTier::detect();
    if tier != SimdTier::Avx512Vnni {
        // The ratios are those of the VNNI kernel's folds; the portable
        // kernel emulates each at its own cost.
        println!("tier {tier}: no native vpdpbusd/vpdpwssd, nothing to guard");
        return;
    }
    let shape = GemmShape { t: 36, n: 64, c: 128, k: 256 };
    let GemmShape { t, n, c, k } = shape;
    let seed = |elem| GemmCostModel::new().seed(tier, &shape.as_u8i8(elem));
    let mut pool = StaticPool::new(2);

    // Operand values do not move integer or (finite) f32 instruction
    // timings; zeroed panels keep the guard about the loop structure.
    let (v8, mut u8_, mut z8) = (VPanel::new(t, n, c), UPanel::new(t, c, k), ZPanel::new(t, n, k));
    u8_.finalize_compensation();
    let (v16, u16_, mut z16) = (VPanelI16::new(t, n, c), UPanelI16::new(t, c, k), ZPanel::new(t, n, k));
    let (vf, uf, mut zf) = (VPanelF32::new(t, n, c), UPanelF32::new(t, c, k), ZPanelF32::new(t, n, k));
    let g8 = GemmTasks::plan(tier, &shape, &seed(Element::U8I8), &v8, &u8_, &mut z8);
    let g16 = GemmTasks::plan_i16(tier, &shape, &seed(Element::I16), &v16, &u16_, &mut z16);
    let gf = GemmTasks::plan_f32(tier, &shape, &seed(Element::F32), &vf, &uf, &mut zf);

    let mut best = [Duration::MAX; 3];
    for round in 0..12 {
        let mut time = |slot: usize, run: &dyn Fn(&mut StaticPool)| {
            let t0 = Instant::now();
            run(&mut pool);
            // Round 0 warms the pool, the caches and the packing scratch.
            if round > 0 {
                best[slot] = best[slot].min(t0.elapsed());
            }
        };
        time(0, &|p| g8.run(p));
        time(1, &|p| g16.run(p));
        time(2, &|p| gf.run(p));
    }
    let [u8i8, i16_, f32_] = best.map(|d| d.as_secs_f64());
    println!(
        "{shape:?} tier={tier}: u8i8 {:.3} ms, i16 {:.3} ms ({:.2}x), f32 {:.3} ms ({:.2}x)",
        u8i8 * 1e3,
        i16_ * 1e3,
        i16_ / u8i8,
        f32_ * 1e3,
        f32_ / u8i8
    );
    assert!(i16_ <= 4.0 * u8i8, "i16 GEMM is {:.1}x the u8i8 GEMM (bound 4x)", i16_ / u8i8);
    assert!(f32_ <= 8.0 * u8i8, "f32 GEMM is {:.1}x the u8i8 GEMM (bound 8x)", f32_ / u8i8);
}
