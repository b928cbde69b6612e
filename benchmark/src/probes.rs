//! Single-layer probes of the traced run: each times one public function of
//! one crate from outside, at a size stated here. They are the denominators
//! (`host.*`, `simd.*`) and the per-crate numbers the per-layer table
//! lists; no end-to-end metric comes from this file.

use std::hint::black_box;
use std::time::Duration;

use lowino::{calibrate_winograd_domain, BlockedImage, ConvShape, SimdTier, LANES};
use lowino_conv::filter::transform_filters_f32;
use lowino_gemm::{measure_candidates, GemmCostModel, GemmShape, TUNE_TOP_K};
use lowino_parallel::StaticPool;
use lowino_simd::dpbusd;
use lowino_simd::vecf32::VecTier;
use lowino_winograd::TileTransformer;

use crate::gen;
use crate::stats::{best_of, median_of};

pub type Metrics = Vec<(&'static str, f64)>;

/// Best-of-`reps` wall time of a probe body that cannot fail.
fn best(reps: usize, mut f: impl FnMut()) -> Duration {
    let body = || {
        f();
        Ok::<(), String>(())
    };
    best_of(reps, body).expect("the probe body returns Ok")
}

/// `host.stream_gbs`: plain f32 copies, one per compute thread, each
/// between its own pair of 32 MiB arrays — 8× one core's L2 (4 MiB on the
/// reference host; its L3 is 260 MiB, so this is last-level-cache
/// bandwidth there, as it is for the large-spatial transforms). The
/// aggregate over the threads; counted bytes are read + written.
const STREAM_BYTES_PER_THREAD: usize = 32 << 20;

pub fn host(threads: usize) -> Metrics {
    let n = STREAM_BYTES_PER_THREAD / 4;
    let mut pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..threads)
        .map(|_| (vec![1.0f32; n], vec![0.0f32; n]))
        .collect();
    let t = best(7, || {
        std::thread::scope(|scope| {
            for (src, dst) in &mut pairs {
                scope.spawn(move || {
                    dst.copy_from_slice(black_box(src));
                    black_box(dst);
                });
            }
        });
    });
    let stream_gbs = (2 * threads * STREAM_BYTES_PER_THREAD) as f64 / t.as_secs_f64() / 1e9;
    vec![
        ("host.cores", crate::host::cores() as f64),
        ("host.stream_gbs", stream_gbs),
        ("simd.dpbusd_gmacs", dpbusd_gmacs()),
        ("parallel.forkjoin_us", forkjoin_us(threads)),
    ]
}

/// `simd.dpbusd_gmacs`: the simd crate's `dpbusd` on register-resident
/// operands, one thread, sixteen independent accumulators so the loop is
/// bound by the instruction's issue rate and not by its latency — the roof
/// `gemm.*` and `conv.gemm_*` are fractions of. 64 MACs per call.
fn dpbusd_gmacs() -> f64 {
    const ACCS: usize = 16;
    const ROUNDS: usize = 200_000;
    let tier = SimdTier::detect();
    let a = [77u8; 64];
    let b = [-13i8; 64];
    let mut accs = [[0i32; 16]; ACCS];

    /// The AVX-512 entry point called from a function compiled with the
    /// same target features, so it inlines and the accumulators stay in
    /// registers; through the tier-dispatching `dpbusd` every call would
    /// cross a feature boundary and the probe would time calls, not VNNI.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn rounds_avx512(accs: &mut [[i32; 16]; ACCS], a: &[u8; 64], b: &[i8; 64]) {
        for _ in 0..ROUNDS {
            for acc in accs.iter_mut() {
                // SAFETY: this function is compiled with exactly the three
                // features `dpbusd_avx512` requires, and its only caller
                // runs it on the `Avx512Vnni` tier alone.
                unsafe { lowino_simd::dpbusd::dpbusd_avx512(acc, a, b) };
            }
        }
    }

    let t = best(5, || {
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `SimdTier::detect` reports `Avx512Vnni` only when the
            // CPU has avx512f, avx512bw and avx512vnni.
            SimdTier::Avx512Vnni => unsafe { rounds_avx512(&mut accs, black_box(&a), &b) },
            _ => {
                for _ in 0..ROUNDS {
                    for acc in &mut accs {
                        dpbusd(tier, acc, black_box(&a), &b);
                    }
                }
            }
        }
        black_box(&mut accs);
    });
    (ACCS * ROUNDS * 64) as f64 / t.as_secs_f64() / 1e9
}

/// `parallel.forkjoin_us`: median round trip of an empty three-phase
/// `StaticPool::run_phases`, the fork-join every executor issues per layer.
fn forkjoin_us(threads: usize) -> f64 {
    let mut pool = StaticPool::new(threads);
    let totals = [threads, threads, threads];
    let t = median_of(2001, || {
        Ok::<_, String>(pool.run_phases(&totals, |_, _, _| {}))
    })
    .expect("the probe body returns Ok");
    t.as_secs_f64() * 1e6
}

/// The probes of the crates under the conv executors, at the shapes of the
/// two LoWino workloads: VGG16_c/16 ("deep": 512 channels) and
/// FusionNet_a at half size ("shallow": 128 channels, 160×160).
pub fn kernels(seed: u64, threads: usize, roof_gmacs: f64) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let vt = VecTier::for_simd(SimdTier::detect());

    // One 64-lane tile (one channel group of the blocked layout) through
    // the fused transforms the LoWino executor calls per tile.
    for (m, input_name, output_name) in [
        (2, "winograd.input_tile_ns_f2", "winograd.output_tile_ns_f2"),
        (4, "winograd.input_tile_ns_f4", "winograd.output_tile_ns_f4"),
    ] {
        let tt = TileTransformer::new(m, 3).map_err(|e| format!("F({m},3): {e:?}"))?;
        let n = tt.n();
        let mut rng = gen::rng(seed, 500 + m as u64);
        let d: Vec<f32> = (0..n * n * LANES).map(|_| rng.bellish(1.0)).collect();
        let z: Vec<i32> = (0..n * n * LANES)
            .map(|_| rng.range_i32(-20_000, 20_000))
            .collect();
        let alphas = vec![17.0f32; n * n];
        let mut q = vec![0u8; n * n * LANES];
        let mut y = vec![0f32; m * m * LANES];
        let mut s = tt.make_scratch(LANES);
        const CALLS: usize = 20_000;
        let t_in = best(5, || {
            for _ in 0..CALLS {
                tt.input_tile_quantized(vt, black_box(&d), &alphas, true, &mut q, &mut s);
            }
            black_box(&mut q);
        });
        let t_out = best(5, || {
            for _ in 0..CALLS {
                tt.output_tile_dequantized(vt, black_box(&z), &[1e-4], 0, &mut y, &mut s);
            }
            black_box(&mut y);
        });
        out.push((input_name, t_in.as_secs_f64() * 1e9 / CALLS as f64));
        out.push((output_name, t_out.as_secs_f64() * 1e9 / CALLS as f64));
    }

    // Set-up work of one deep layer: the F(4,3) filter transform of
    // 512×512 filters and the Winograd-domain calibration of a 4-image
    // sample.
    let deep = ConvShape::same(4, 512, 512, 16, 3)
        .validate()
        .map_err(|e| e.to_string())?;
    let weights = gen::weights(&deep, &mut gen::rng(seed, 510));
    let sample = BlockedImage::from_nchw(&gen::activations(
        deep.batch,
        deep.in_c,
        deep.h,
        deep.w,
        &mut gen::rng(seed, 511),
    ));
    let tt4 = TileTransformer::new(4, 3).map_err(|e| format!("{e:?}"))?;
    let t = median_of(3, || transform_filters_f32(&deep, &tt4, &weights))?;
    out.push(("winograd.filter_transform_ms", t.as_secs_f64() * 1e3));
    let t = median_of(3, || {
        calibrate_winograd_domain(&deep, 4, std::slice::from_ref(&sample))
    })?;
    out.push(("quant.calibrate_ms", t.as_secs_f64() * 1e3));

    // The batched u8×i8 GEMM at both workloads' F(4,3) shapes, with the
    // blocking the cost model seeds; and how much slower that seed is than
    // the best of the model's top-K candidates when all are measured.
    let tier = SimdTier::detect();
    let mut pool = StaticPool::new(threads);
    let model = GemmCostModel::new();
    let shape_of = |spec: &ConvShape| {
        let geom = spec.tiles(4).expect("tiles");
        GemmShape {
            t: geom.t(),
            n: geom.total,
            c: spec.in_c,
            k: spec.out_c,
        }
    };
    let deep_shape = shape_of(&deep);
    let (_, log) = measure_candidates(
        tier,
        &deep_shape,
        &model.top_k(tier, &deep_shape, TUNE_TOP_K),
        &mut pool,
        9,
    );
    let seed_time = log[0].time.as_secs_f64();
    let best_time = log
        .iter()
        .map(|m| m.time.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let gmacs_deep = deep_shape.macs() as f64 / seed_time / 1e9;
    out.push(("gemm.gmacs_deep", gmacs_deep));
    out.push((
        "gemm.roof_frac_deep",
        gmacs_deep / (threads as f64 * roof_gmacs),
    ));
    out.push(("gemm.seed_regret_deep", seed_time / best_time - 1.0));

    let shallow = ConvShape::same(1, 128, 128, 160, 3)
        .validate()
        .map_err(|e| e.to_string())?;
    let shallow_shape = shape_of(&shallow);
    let (_, log) = measure_candidates(
        tier,
        &shallow_shape,
        &[model.seed(tier, &shallow_shape)],
        &mut pool,
        9,
    );
    out.push((
        "gemm.gmacs_shallow",
        shallow_shape.macs() as f64 / log[0].time.as_secs_f64() / 1e9,
    ));

    // NCHW → blocked layout conversion of the shallow layer's input, the
    // load every graph execute starts with. Counted bytes: read + written.
    let nchw = gen::activations(1, 128, 160, 160, &mut gen::rng(seed, 512));
    let t = best(5, || {
        black_box(BlockedImage::from_nchw(black_box(&nchw)));
    });
    out.push((
        "tensor.from_nchw_gbs",
        2.0 * 4.0 * nchw.len() as f64 / t.as_secs_f64() / 1e9,
    ));
    Ok(out)
}
