//! Property tests: a lowered tape ([`lowino_winograd::tape`]) — on its
//! generated straight-line kernel and on the generic run-time driver alike —
//! is **bitwise identical** to the interpreted codelet executor (the
//! reference oracle): for every available vector tier, every entry point
//! (plain f32, post-ops, fused quantize, fused dequantize), every generated
//! `F(m, 3)` transform matrix and sizes outside the generated set, random
//! lane counts (scalar tails included), `-0.0` inputs and magnitudes that
//! saturate INT8, with strided addressing.

use lowino_simd::vecf32::VecTier;
use lowino_simd::{dequantize_i32_lanes, quantize_f32_lanes_i8};
use lowino_testkit::{one_of, prop_assert, property, Rng};
use lowino_winograd::codelet::Codelet;
use lowino_winograd::tape::{Tape, TapePostOps};
use lowino_winograd::{TileTransformer, WinogradMatrices};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The three 1-D transform matrices of `F(m, r)` as (name, codelet) pairs.
fn codelets(m: usize, r: usize) -> Vec<(&'static str, Codelet)> {
    let w = WinogradMatrices::for_tile(m, r).unwrap();
    vec![
        ("bt", Codelet::generate(&w.bt)),
        ("g", Codelet::generate(&w.g)),
        ("at", Codelet::generate(&w.at)),
    ]
}

/// Random values with the cases the identity contract is about mixed in:
/// `-0.0` (a destination starts from `+0.0`, so a lone `c · -0.0` term must
/// come out as `+0.0`), `+0.0`, and magnitudes that clamp at ±127 under the
/// quantize scales below.
fn edgy_f32(rng: &mut Rng, len: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    rng.fill_f32(&mut v, -9.0, 9.0);
    for x in v.iter_mut() {
        match rng.range_i32(0, 8) {
            0 => *x = -0.0,
            1 => *x = 0.0,
            2 => *x *= 1e4,
            _ => {}
        }
    }
    v
}

/// All four entry points of `tape` against the interpreted `code` composed
/// with the scalar `lowino-simd` conversions, on every available tier.
fn check_entry_points(
    what: &str,
    code: &Codelet,
    tape: &Tape,
    lanes: usize,
    rng: &mut Rng,
) -> Result<(), String> {
    let (n_in, n_out) = (code.n_in(), code.n_out());
    // Slots wider apart than the lane group, at a nonzero base.
    let (in_base, in_stride) = (3, lanes + 2);
    let (out_base, out_stride) = (1, lanes + 5);
    let in_len = in_base + n_in * in_stride;
    let out_len = out_base + n_out * out_stride;
    let mut cse = vec![0.0f32; code.n_temps().max(1) * lanes];
    let interpret = |input: &[f32], cse: &mut [f32]| {
        let mut want = vec![0.0f32; out_len];
        code.execute_f32(lanes, input, in_base, in_stride, &mut want, out_base, out_stride, cse);
        want
    };
    let slot = |i: usize| out_base + i * out_stride..out_base + i * out_stride + lanes;

    let input = edgy_f32(rng, in_len);
    let want = interpret(&input, &mut cse);

    // Post-ops: bias, a residual at its own base/stride, ReLU.
    let bias = edgy_f32(rng, lanes);
    let (res_base, res_stride) = (2, lanes + 1);
    let res = edgy_f32(rng, res_base + n_out * res_stride);
    let mut want_post = want.clone();
    for i in 0..n_out {
        for l in 0..lanes {
            let v = (want[slot(i)][l] + bias[l]) + res[res_base + i * res_stride + l];
            want_post[slot(i)][l] = if v > 0.0 { v } else { 0.0 };
        }
    }

    // Quantize: one scale per slot, large enough to saturate some lanes.
    let mut alphas = vec![0.0f32; n_out];
    rng.fill_f32(&mut alphas, 0.05, 40.0);

    // Dequantize: raw i32 slots, per-slot scales (stride 1) or one (stride 0).
    let z: Vec<i32> = (0..in_len).map(|_| rng.range_i32(-2_000_000, 2_000_000)).collect();
    let mut scales = vec![0.0f32; n_in];
    rng.fill_f32(&mut scales, 1e-5, 2e-3);

    for vt in VecTier::available() {
        let mut got = vec![f32::NAN; out_len];
        tape.execute_f32(vt, lanes, &input, in_base, in_stride, &mut got, out_base, out_stride);
        for i in 0..n_out {
            prop_assert!(
                bits(&got[slot(i)]) == bits(&want[slot(i)]),
                "{what} f32 tier={vt} lanes={lanes} slot {i}"
            );
        }

        let mut got = vec![f32::NAN; out_len];
        let post = TapePostOps {
            bias: Some(&bias),
            residual: Some((&res, res_base, res_stride)),
            relu: true,
        };
        tape.execute_f32_post(vt, lanes, &input, in_base, in_stride, post, &mut got, out_base, out_stride);
        for i in 0..n_out {
            prop_assert!(
                bits(&got[slot(i)]) == bits(&want_post[slot(i)]),
                "{what} post tier={vt} lanes={lanes} slot {i}"
            );
        }

        for compensate in [true, false] {
            let mut got = vec![0xAAu8; out_len];
            tape.execute_quant_u8(
                vt, lanes, &input, in_base, in_stride, &alphas, 0, 1, compensate,
                &mut got, out_base, out_stride,
            );
            for i in 0..n_out {
                let mut want_q = vec![0u8; lanes];
                quantize_f32_lanes_i8(&want[slot(i)], alphas[i], compensate, &mut want_q);
                prop_assert!(
                    got[slot(i)] == want_q[..],
                    "{what} quant tier={vt} lanes={lanes} compensate={compensate} slot {i}"
                );
            }
        }

        for scale_stride in [0usize, 1] {
            let mut zf = vec![0.0f32; in_len];
            for j in 0..n_in {
                let span = in_base + j * in_stride..in_base + j * in_stride + lanes;
                dequantize_i32_lanes(&z[span.clone()], scales[j * scale_stride], &mut zf[span]);
            }
            let want_d = interpret(&zf, &mut cse);
            let mut got = vec![f32::NAN; out_len];
            tape.execute_dequant_f32(
                vt, lanes, &z, in_base, in_stride, &scales, 0, scale_stride,
                &mut got, out_base, out_stride,
            );
            for i in 0..n_out {
                prop_assert!(
                    bits(&got[slot(i)]) == bits(&want_d[slot(i)]),
                    "{what} dequant tier={vt} lanes={lanes} scale_stride={scale_stride} slot {i}"
                );
            }
        }
    }
    Ok(())
}

/// `input_tile_f32_compiled` on widened INT8 values against the interpreted
/// integer transform, value for value, on every tier.
fn check_int8_tile(tt: &TileTransformer, lanes: usize, d: &[i32]) -> Result<(), String> {
    let n = tt.n();
    let mut s = tt.make_scratch(lanes);
    let mut want = vec![0i32; n * n * lanes];
    tt.input_tile_i32(d, &mut want, &mut s);
    let d_f: Vec<f32> = d.iter().map(|&x| x as f32).collect();
    for vt in VecTier::available() {
        let mut got = vec![f32::NAN; n * n * lanes];
        tt.input_tile_f32_compiled(vt, &d_f, &mut got, &mut s);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                *g == *w as f32 && (*g as i32) == *w,
                "F({},3) tier={vt} lanes={lanes} element {i}: {g} != {w}",
                tt.m()
            );
        }
    }
    Ok(())
}

/// The plan-time guard of the spatial-domain baselines: wherever
/// `input_exact_in_f32` says the f32 `Bᵀ` is exact on INT8 tiles, it is —
/// on the input that drives each transformed element `(i, j)` to its
/// largest magnitude (`d[a][b] = ±127·sign(Bᵀ[i][a]·Bᵀ[j][b])`, one pattern
/// per lane, both signs), where any f32 rounding would show first.
#[test]
fn f32_input_tile_is_exact_on_worst_case_int8_tiles() {
    for (m, must_hold) in [(2usize, true), (4, true), (6, false)] {
        let tt = TileTransformer::new(m, 3).unwrap();
        let exact = tt.input_exact_in_f32(127);
        assert!(exact || !must_hold, "F({m},3) must take the f32 path");
        assert!(!tt.input_exact_in_f32(1 << 24), "F({m},3): the bound is not vacuous");
        if !exact {
            continue;
        }
        let (n, bt) = (tt.n(), &tt.matrices().bt);
        let lanes = 2 * n * n;
        let mut d = vec![0i32; n * n * lanes];
        for lane in 0..lanes {
            let (i, j, flip) = ((lane / 2) / n, (lane / 2) % n, lane % 2 == 1);
            for a in 0..n {
                for b in 0..n {
                    let c = bt[(i, a)] * bt[(j, b)];
                    let neg = (c < lowino_winograd::Rational::ZERO) != flip;
                    d[(a * n + b) * lanes + lane] = if neg { -127 } else { 127 };
                }
            }
        }
        check_int8_tile(&tt, lanes, &d).unwrap();
    }
}

property! {
    /// 1-D codelet execution, every entry point: generated kernel ==
    /// generic driver == interpreter, bit for bit, on every available tier,
    /// for lane counts straddling every chunk boundary. Sizes outside the
    /// generated set must still lower — onto the generic driver — and match.
    #[cases(64)]
    fn every_entry_point_matches_interpreter_1d(
        size in one_of(&[(2usize, 3usize), (4, 3), (6, 3), (3, 3), (2, 5)]),
        lanes in 1usize..70,
        seed in 0u64..1_000_000,
    ) {
        let (m, r) = size;
        let generated = r == 3 && [2, 4, 6].contains(&m);
        let mut rng = Rng::seed_from_u64(seed ^ 0xD1CE);
        for (name, code) in codelets(m, r) {
            let tape = Tape::lower(&code);
            prop_assert!(
                tape.kernel().is_some() == generated,
                "F({m},{r}) {name}: resolved {:?}", tape.kernel()
            );
            check_entry_points(&format!("F({m},{r}) {name} lowered"), &code, &tape, lanes, &mut rng)?;
            if generated {
                let generic = Tape::lower_generic(&code);
                prop_assert!(generic.kernel().is_none());
                check_entry_points(&format!("F({m},{r}) {name} generic"), &code, &generic, lanes, &mut rng)?;
            }
        }
    }

    /// 2-D tile transforms (column + row pass with strided addressing):
    /// compiled == interpreted for input, filter and output transforms.
    #[cases(32)]
    fn tile_transforms_match_2d(
        m in one_of(&[2usize, 4, 6]),
        lanes in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let tt = TileTransformer::new(m, 3).unwrap();
        let n = tt.n();
        let r = tt.r();
        let mut rng = Rng::seed_from_u64(seed ^ 0x7070);
        let mut s_int = tt.make_scratch(lanes);
        let mut s_cmp = tt.make_scratch(lanes);

        let mut d = vec![0.0f32; n * n * lanes];
        rng.fill_f32(&mut d, -6.0, 6.0);
        let mut want = vec![0.0f32; n * n * lanes];
        tt.input_tile_f32(&d, &mut want, &mut s_int);
        let mut g = vec![0.0f32; r * r * lanes];
        rng.fill_f32(&mut g, -2.0, 2.0);
        let mut want_u = vec![0.0f32; n * n * lanes];
        tt.filter_tile_f32(&g, &mut want_u, &mut s_int);
        let mut z = vec![0.0f32; n * n * lanes];
        rng.fill_f32(&mut z, -50.0, 50.0);
        let mut want_y = vec![0.0f32; m * m * lanes];
        tt.output_tile_f32(&z, &mut want_y, &mut s_int);

        for vt in VecTier::available() {
            let mut v = vec![f32::NAN; n * n * lanes];
            tt.input_tile_f32_compiled(vt, &d, &mut v, &mut s_cmp);
            prop_assert!(bits(&v) == bits(&want), "input F({m},3) tier={vt} lanes={lanes}");
            let mut u = vec![f32::NAN; n * n * lanes];
            tt.filter_tile_f32_compiled(vt, &g, &mut u, &mut s_cmp);
            prop_assert!(bits(&u) == bits(&want_u), "filter F({m},3) tier={vt} lanes={lanes}");
            let mut y = vec![f32::NAN; m * m * lanes];
            tt.output_tile_f32_compiled(vt, &z, &mut y, &mut s_cmp);
            prop_assert!(bits(&y) == bits(&want_y), "output F({m},3) tier={vt} lanes={lanes}");
        }
    }

    /// Fused quantize epilogue == interpreted transform followed by the
    /// scalar per-element `quantize_f32_lanes_i8` (the two-pass reference),
    /// with per-element Winograd-domain scales and both compensation modes.
    #[cases(32)]
    fn fused_input_quantize_matches_two_pass(
        m in one_of(&[2usize, 4, 6]),
        lanes in 1usize..80,
        seed in 0u64..1_000_000,
        compensate in one_of(&[true, false]),
    ) {
        let tt = TileTransformer::new(m, 3).unwrap();
        let n = tt.n();
        let mut rng = Rng::seed_from_u64(seed ^ 0xFACADE);
        let mut d = vec![0.0f32; n * n * lanes];
        rng.fill_f32(&mut d, -6.0, 6.0);
        // Per-element scales like LoWino's per-t α_V (include magnitudes
        // that drive some lanes into saturation).
        let mut alphas = vec![0.0f32; n * n];
        rng.fill_f32(&mut alphas, 0.05, 40.0);

        // Two-pass reference: interpreted transform, then scalar quantize
        // per element group.
        let mut s = tt.make_scratch(lanes);
        let mut v = vec![0.0f32; n * n * lanes];
        tt.input_tile_f32(&d, &mut v, &mut s);
        let mut want = vec![0u8; n * n * lanes];
        for t in 0..n * n {
            quantize_f32_lanes_i8(
                &v[t * lanes..(t + 1) * lanes],
                alphas[t],
                compensate,
                &mut want[t * lanes..(t + 1) * lanes],
            );
        }

        for vt in VecTier::available() {
            let mut q = vec![0xAAu8; n * n * lanes];
            tt.input_tile_quantized(vt, &d, &alphas, compensate, &mut q, &mut s);
            prop_assert!(
                q == want,
                "F({m},3) tier={vt} lanes={lanes} compensate={compensate}"
            );
        }
    }

    /// Fused dequantize prologue == scalar `dequantize_i32_lanes` into an
    /// f32 tile followed by the interpreted output transform, for both
    /// per-element scales (stride 1) and a broadcast scale (stride 0).
    #[cases(32)]
    fn fused_output_dequantize_matches_two_pass(
        m in one_of(&[2usize, 4, 6]),
        lanes in 1usize..80,
        seed in 0u64..1_000_000,
        stride in one_of(&[0usize, 1]),
    ) {
        let tt = TileTransformer::new(m, 3).unwrap();
        let n = tt.n();
        let mut rng = Rng::seed_from_u64(seed ^ 0xDE0);
        let z: Vec<i32> = (0..n * n * lanes)
            .map(|_| rng.range_i32(-2_000_000, 2_000_000))
            .collect();
        let mut inv = vec![0.0f32; n * n];
        rng.fill_f32(&mut inv, 1e-5, 2e-3);

        // Two-pass reference.
        let mut s = tt.make_scratch(lanes);
        let mut f = vec![0.0f32; n * n * lanes];
        for t in 0..n * n {
            dequantize_i32_lanes(
                &z[t * lanes..(t + 1) * lanes],
                inv[t * stride],
                &mut f[t * lanes..(t + 1) * lanes],
            );
        }
        let mut want = vec![0.0f32; m * m * lanes];
        tt.output_tile_f32(&f, &mut want, &mut s);

        for vt in VecTier::available() {
            let mut y = vec![f32::NAN; m * m * lanes];
            tt.output_tile_dequantized(vt, &z, &inv, stride, &mut y, &mut s);
            prop_assert!(
                bits(&y) == bits(&want),
                "F({m},3) tier={vt} lanes={lanes} stride={stride}"
            );
        }
    }

    /// Integer-oracle bridge: on INT8-range inputs the integral `Bᵀ`
    /// transform is exact in both `i32` and `f32` (everything stays far
    /// below 2²⁴), so the tape's f32 result must equal the interpreted
    /// `execute_i32` exactly.
    #[cases(32)]
    fn tape_matches_integer_interpreter_on_int8_range(
        m in one_of(&[2usize, 4, 6]),
        lanes in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let w = WinogradMatrices::for_tile(m, 3).unwrap();
        let code = Codelet::generate(&w.bt);
        let tape = Tape::lower(&code);
        let (n_in, n_out) = (code.n_in(), code.n_out());
        let mut rng = Rng::seed_from_u64(seed ^ 0x1B);
        let input_i: Vec<i32> = (0..n_in * lanes)
            .map(|_| i32::from(rng.i8()))
            .collect();
        let input_f: Vec<f32> = input_i.iter().map(|&x| x as f32).collect();

        let mut want = vec![0i32; n_out * lanes];
        let mut cse = vec![0i32; code.n_temps().max(1) * lanes];
        code.execute_i32(lanes, &input_i, 0, lanes, &mut want, 0, lanes, &mut cse);

        for vt in VecTier::available() {
            let mut got = vec![f32::NAN; n_out * lanes];
            tape.execute_f32(vt, lanes, &input_f, 0, lanes, &mut got, 0, lanes);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(
                    *g == *w as f32,
                    "F({m},3) tier={vt} lanes={lanes}: {g} != {w}"
                );
            }
        }
    }

    /// The same equality on seeded `[-127, 127]` tiles (64 lanes, the
    /// executors' width), for every tile size the guard admits.
    #[cases(24)]
    fn f32_input_tile_matches_integer_tile_on_int8_range(
        m in one_of(&[2usize, 4, 6]),
        seed in 0u64..1_000_000,
    ) {
        let tt = TileTransformer::new(m, 3).unwrap();
        if tt.input_exact_in_f32(127) {
            let mut rng = Rng::seed_from_u64(seed ^ 0x2D);
            let d: Vec<i32> = (0..tt.n() * tt.n() * 64).map(|_| rng.range_i32(-127, 128)).collect();
            check_int8_tile(&tt, 64, &d)?;
        }
    }
}
