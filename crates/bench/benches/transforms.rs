//! Transform codelet bench: per-tile cost of the interpreted codelet
//! executor (the reference oracle retained in `lowino_winograd::codelet`)
//! against the lowered tape (`lowino_winograd::tape`, on its generated
//! straight-line kernels) executed at the host's native vector tier, for
//! every supported `F(m, 3)` input / filter / output transform at the
//! production lane count (`LANES = 64`, one channel block).
//!
//! The `driver` groups hold the two ways a tape can run against each other
//! on one 64-lane 1-D call per matrix: `generic` walks the term list at run
//! time (`Tape::lower_generic`, what tile sizes outside the generated set
//! get), `generated` is the straight-line kernel `Tape::lower` resolves —
//! if the two ever read the same, the kernels have stopped being used.
//!
//! Two extra pairs measure the fused epilogues against their two-pass
//! spellings:
//!
//! * `input_quant`: interpreted transform + scalar per-`t` quantize vs. the
//!   fused row pass that quantizes while the tile is register-resident;
//! * `output_dequant`: scalar de-quantize + interpreted transform vs. the
//!   fused column pass with the scale folded into the i32→f32 loads.
//!
//! Run with `cargo bench --bench transforms`; set
//! `LOWINO_BENCH_JSON=<path>` to accumulate the JSON-line log and
//! `LOWINO_BENCH_SMOKE=1` for a seconds-long CI smoke configuration (the
//! `driver` groups of all three tile sizes, the tile groups of `F(4,3)`).

use lowino_simd::vecf32::VecTier;
use lowino_simd::{dequantize_i32_lanes, quantize_f32_lanes_i8};
use lowino_tensor::LANES;
use lowino_testkit::{black_box, BenchGroup, Rng};
use lowino_winograd::codelet::Codelet;
use lowino_winograd::{Tape, TapePostOps, TileTransformer, WinogradMatrices};
use std::time::Duration;

struct Config {
    smoke: bool,
    vt: VecTier,
}

impl Config {
    fn from_env() -> Self {
        Self {
            smoke: std::env::var("LOWINO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"),
            vt: VecTier::detect(),
        }
    }

    fn tune(&self, group: &mut BenchGroup) {
        if self.smoke {
            group
                .sample_size(3)
                .measurement_time(Duration::from_millis(40))
                .warm_up_time(Duration::from_millis(10));
        } else {
            group
                .sample_size(15)
                .measurement_time(Duration::from_millis(900))
                .warm_up_time(Duration::from_millis(150));
        }
    }
}

/// Generic run-time driver vs generated kernel, one 1-D `LANES`-wide call
/// per transform matrix of `F(m, 3)`.
fn bench_driver(m: usize, cfg: &Config) {
    let w = WinogradMatrices::for_tile(m, 3).expect("supported tile");
    let vt = cfg.vt;
    let mut rng = Rng::seed_from_u64(0xD21 ^ m as u64);
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/driver/{vt}"));
    cfg.tune(&mut group);
    for (name, mat) in [("bt", &w.bt), ("g", &w.g), ("at", &w.at)] {
        let code = Codelet::generate(mat);
        let generated = Tape::lower(&code);
        assert!(generated.kernel().is_some(), "F({m},3) {name} has no generated kernel");
        let mut input = vec![0f32; code.n_in() * LANES];
        rng.fill_f32(&mut input, -6.0, 6.0);
        let mut output = vec![0f32; code.n_out() * LANES];
        for (how, tape) in [("generic", Tape::lower_generic(&code)), ("generated", generated)] {
            group.bench_function(format!("{name}/{how}"), || {
                tape.execute_f32(vt, LANES, black_box(&input), 0, LANES, &mut output, 0, LANES);
                black_box(output[0]);
            });
        }
    }
}

fn bench_tile(m: usize, cfg: &Config) {
    let tt = TileTransformer::new(m, 3).expect("supported tile");
    let n = tt.n();
    let vt = cfg.vt;
    let mut rng = Rng::seed_from_u64(0x9E3779B97F4A7C15 ^ m as u64);

    let mut d = vec![0f32; n * n * LANES];
    rng.fill_f32(&mut d, -6.0, 6.0);
    let mut g = vec![0f32; 3 * 3 * LANES];
    rng.fill_f32(&mut g, -2.0, 2.0);
    let z_i32: Vec<i32> = {
        let mut buf = vec![0f32; n * n * LANES];
        rng.fill_f32(&mut buf, -2e6, 2e6);
        buf.iter().map(|&x| x as i32).collect()
    };
    let mut alphas = vec![0f32; n * n];
    rng.fill_f32(&mut alphas, 0.5, 8.0);
    let inv = 1.7e-4f32;

    let mut s = tt.make_scratch(LANES);
    let mut v = vec![0f32; n * n * LANES];
    let mut u = vec![0f32; n * n * LANES];
    let mut y = vec![0f32; m * m * LANES];
    let mut q = vec![0u8; n * n * LANES];
    let mut zf = vec![0f32; n * n * LANES];

    // -- Input transform: interpreted vs compiled.
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/input/{vt}"));
    cfg.tune(&mut group);
    group.throughput_elements((n * n * LANES) as u64);
    group.bench_function("interpreted", || {
        tt.input_tile_f32(black_box(&d), &mut v, &mut s);
        black_box(v[0]);
    });
    group.bench_function("compiled", || {
        tt.input_tile_f32_compiled(vt, black_box(&d), &mut v, &mut s);
        black_box(v[0]);
    });

    // -- Filter transform: interpreted vs compiled.
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/filter/{vt}"));
    cfg.tune(&mut group);
    group.throughput_elements((n * n * LANES) as u64);
    group.bench_function("interpreted", || {
        tt.filter_tile_f32(black_box(&g), &mut u, &mut s);
        black_box(u[0]);
    });
    group.bench_function("compiled", || {
        tt.filter_tile_f32_compiled(vt, black_box(&g), &mut u, &mut s);
        black_box(u[0]);
    });

    // -- Output transform: interpreted vs compiled.
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/output/{vt}"));
    cfg.tune(&mut group);
    group.throughput_elements((m * m * LANES) as u64);
    group.bench_function("interpreted", || {
        tt.output_tile_f32(black_box(&v), &mut y, &mut s);
        black_box(y[0]);
    });
    group.bench_function("compiled", || {
        // The production pair: column pass, then the in-place row pass.
        tt.output_columns_f32(vt, black_box(&v), &mut s);
        // SAFETY: `y` holds `m` rows of `m·LANES` values and is
        // exclusively borrowed.
        unsafe {
            let y = y.as_mut_ptr();
            tt.output_rows_post_strided(vt, TapePostOps::default(), 0, y, m * LANES, &mut s);
        }
        black_box(y[0]);
    });

    // -- Fused input-quantize epilogue vs the two-pass spelling.
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/input_quant/{vt}"));
    cfg.tune(&mut group);
    group.throughput_elements((n * n * LANES) as u64);
    group.bench_function("two_pass", || {
        tt.input_tile_f32(black_box(&d), &mut v, &mut s);
        for t in 0..n * n {
            quantize_f32_lanes_i8(
                &v[t * LANES..(t + 1) * LANES],
                alphas[t],
                true,
                &mut q[t * LANES..(t + 1) * LANES],
            );
        }
        black_box(q[0]);
    });
    group.bench_function("fused", || {
        tt.input_tile_quantized(vt, black_box(&d), &alphas, true, &mut q, &mut s);
        black_box(q[0]);
    });

    // -- Fused output-dequantize prologue vs the two-pass spelling.
    let mut group = BenchGroup::new(format!("transforms/F{m}x3/output_dequant/{vt}"));
    cfg.tune(&mut group);
    group.throughput_elements((m * m * LANES) as u64);
    group.bench_function("two_pass", || {
        dequantize_i32_lanes(black_box(&z_i32), inv, &mut zf);
        tt.output_tile_f32(&zf, &mut y, &mut s);
        black_box(y[0]);
    });
    group.bench_function("fused", || {
        tt.output_tile_dequantized(
            vt,
            black_box(&z_i32),
            core::slice::from_ref(&inv),
            0,
            &mut y,
            &mut s,
        );
        black_box(y[0]);
    });
}

fn main() {
    lowino_trace::init_from_env();
    let cfg = Config::from_env();
    for m in [2, 4, 6] {
        bench_driver(m, &cfg);
        // Smoke: one tile size is enough to prove every tile path runs.
        if !cfg.smoke || m == 4 {
            bench_tile(m, &cfg);
        }
    }
    lowino_trace::flush_to_env();
}
