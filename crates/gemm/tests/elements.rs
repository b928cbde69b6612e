//! One differential battery for the one driver: every element type through
//! `GemmTasks` against its naive reference, **bit for bit** (`==` on the i32
//! sums, `to_bits()` on the f32 ones — the FP32 rounding rule of
//! `lowino_gemm::F32` makes equality the bar there too).
//!
//! Element {u8×i8, i16, f32} × ragged `N`, `C` off every word grid, `K` off
//! the 64 grid × blockings {the cost model's seed, `c_blk < C` (partial sums
//! parked in `Z`: the `Accumulate` path), `k_blk = 64`, every `row_blk`,
//! every `col_blk`} × every available tier × threads {1, 3}, with the padding
//! channels of **both** operands poisoned after the reference is taken, so a
//! walk that leaves the layer's own words reads wrong sums.
//! `ci/check.sh` runs this file under every `LOWINO_FORCE_TIER` as part of
//! the workspace pass.

use lowino_gemm::reference::{reference_gemm, reference_gemm_f32, reference_gemm_i16};
use lowino_gemm::{
    Blocking, Element, GemmCostModel, GemmShape, GemmTasks, Operands, UPanelOf, VPanelOf, ZPanelOf, F32,
    I16, U8I8,
};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;
use lowino_testkit::Rng;

/// One element type's operand values and reference; outputs are compared
/// as the bit patterns of `Z[t][n][k]` over the logical `k`.
trait Family: Operands {
    fn fill(shape: &GemmShape, rng: &mut Rng) -> (VPanelOf<Self>, UPanelOf<Self>);
    fn reference(v: &VPanelOf<Self>, u: &UPanelOf<Self>, shape: &GemmShape) -> Vec<u32>;
    /// Overwrite channels `from..C_p` of both operands with values that
    /// change (or poison) any sum they enter.
    fn poison(v: &mut VPanelOf<Self>, u: &mut UPanelOf<Self>, shape: &GemmShape, from: usize);
    fn bits(z: Self::Z) -> u32;
}

/// `Z = V × U` through the one driver, as bit patterns.
fn run<F: Family>(
    tier: SimdTier,
    s: &GemmShape,
    b: &Blocking,
    v: &VPanelOf<F>,
    u: &UPanelOf<F>,
    pool: &mut StaticPool,
) -> Vec<u32> {
    let mut z = ZPanelOf::new(s.t, s.n, s.k);
    GemmTasks::plan(tier, s, b, v, u, &mut z).run(pool);
    logical(s, |t, n, k| F::bits(z.get(t, n, k)))
}

fn logical<T: Copy>(shape: &GemmShape, get: impl Fn(usize, usize, usize) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(shape.t * shape.n * shape.k);
    for t in 0..shape.t {
        for n in 0..shape.n {
            for k in 0..shape.k {
                out.push(get(t, n, k));
            }
        }
    }
    out
}

impl Family for U8I8 {
    fn fill(s: &GemmShape, rng: &mut Rng) -> (VPanelOf<U8I8>, UPanelOf<U8I8>) {
        let (mut v, mut u) = (VPanelOf::new(s.t, s.n, s.c), UPanelOf::new(s.t, s.c, s.k));
        for t in 0..s.t {
            for c in 0..s.c {
                (0..s.n).for_each(|n| v.set(t, n, c, rng.u8()));
                (0..s.k).for_each(|k| u.set(t, c, k, rng.i8()));
            }
        }
        u.finalize_compensation();
        (v, u)
    }
    fn reference(v: &VPanelOf<U8I8>, u: &UPanelOf<U8I8>, s: &GemmShape) -> Vec<u32> {
        reference_gemm(v, u, s).into_iter().map(|x| x as u32).collect()
    }
    fn poison(v: &mut VPanelOf<U8I8>, u: &mut UPanelOf<U8I8>, s: &GemmShape, from: usize) {
        for t in 0..s.t {
            for c in from..u.cp() {
                (0..s.n).for_each(|n| v.set(t, n, c, 128));
                (0..s.k).for_each(|k| u.set(t, c, k, 0x55));
            }
        }
    }
    fn bits(z: i32) -> u32 {
        z as u32
    }
}

impl Family for I16 {
    fn fill(s: &GemmShape, rng: &mut Rng) -> (VPanelOf<I16>, UPanelOf<I16>) {
        let (mut v, mut u) = (VPanelOf::new(s.t, s.n, s.c), UPanelOf::new(s.t, s.c, s.k));
        for t in 0..s.t {
            for c in 0..s.c {
                // Bounded like the up-cast operands: growth(4)·127 and ±127.
                (0..s.n).for_each(|n| v.row_mut(t, n)[c] = rng.range_i32(-12700, 12701) as i16);
                (0..s.k).for_each(|k| u.set(t, c, k, rng.range_i32(-127, 128) as i16));
            }
        }
        (v, u)
    }
    fn reference(v: &VPanelOf<I16>, u: &UPanelOf<I16>, s: &GemmShape) -> Vec<u32> {
        reference_gemm_i16(v, u, s).into_iter().map(|x| x as u32).collect()
    }
    fn poison(v: &mut VPanelOf<I16>, u: &mut UPanelOf<I16>, s: &GemmShape, from: usize) {
        for t in 0..s.t {
            for c in from..u.cp() {
                (0..s.n).for_each(|n| v.row_mut(t, n)[c] = 111);
                (0..u.kp()).for_each(|k| u.set(t, c, k, -77));
            }
        }
    }
    fn bits(z: i32) -> u32 {
        z as u32
    }
}

impl Family for F32 {
    fn fill(s: &GemmShape, rng: &mut Rng) -> (VPanelOf<F32>, UPanelOf<F32>) {
        let (mut v, mut u) = (VPanelOf::new(s.t, s.n, s.c), UPanelOf::new(s.t, s.c, s.k));
        for t in 0..s.t {
            for c in 0..s.c {
                // Mixed magnitudes and exact zeros: sums that round at every
                // step, so any reordering or fusing shows in the low bits.
                (0..s.n).for_each(|n| {
                    v.row_mut(t, n)[c] = if rng.range_i32(0, 8) == 0 { 0.0 } else { rng.f32_range(-40.0, 40.0) }
                });
                (0..s.k).for_each(|k| u.set(t, c, k, rng.f32_range(-1.5, 1.5)));
            }
        }
        (v, u)
    }
    fn reference(v: &VPanelOf<F32>, u: &UPanelOf<F32>, s: &GemmShape) -> Vec<u32> {
        reference_gemm_f32(v, u, s).into_iter().map(f32::to_bits).collect()
    }
    fn poison(v: &mut VPanelOf<F32>, u: &mut UPanelOf<F32>, s: &GemmShape, from: usize) {
        let cp = v.cp();
        for t in 0..s.t {
            for c in from..cp {
                (0..s.n).for_each(|n| v.row_mut(t, n)[c] = f32::NAN);
                (0..u.kp()).for_each(|k| u.set(t, c, k, 3.0));
            }
        }
    }
    fn bits(z: f32) -> u32 {
        z.to_bits()
    }
}

/// The blockings of the battery for one `(tier, shape, element)`.
fn blockings(tier: SimdTier, shape: &GemmShape, elem: Element) -> Vec<(String, Blocking)> {
    let mut out = vec![
        ("seed".to_string(), GemmCostModel::new().seed(tier, &shape.as_u8i8(elem))),
        // 4 words per C chunk: every C ≥ 37 below spans several, for every
        // element, so partial sums round-trip through `Z`.
        ("c_blk<C".to_string(), Blocking { n_blk: 7, c_blk: 16, k_blk: 64, row_blk: 4, col_blk: 2 }),
        ("k_blk=64".to_string(), Blocking { n_blk: 19, c_blk: 512, k_blk: 64, row_blk: 6, col_blk: 4 }),
    ];
    for row_blk in 1..=8 {
        // col_blk cycles through 1/2/4 inside the register budget.
        let col_blk = match row_blk % 3 {
            0 if row_blk <= 6 => 4,
            1 => 1,
            _ => 2,
        };
        out.push((
            format!("{row_blk}x{col_blk}"),
            Blocking { n_blk: 11, c_blk: 32, k_blk: 128, row_blk, col_blk },
        ));
    }
    out
}

fn battery<F: Family>() {
    let mut rng = Rng::seed_from_u64(0xE1E ^ F::ELEMENT as u64);
    // C = 8 fills whole words of every element: no half-filled last word.
    for (c, k) in [(3, 40), (37, 70), (70, 130), (8, 40)] {
        // N = 19 is ragged against every n_blk and row_blk above.
        let shape = GemmShape { t: 2, n: 19, c, k };
        let (mut v, mut u) = F::fill(&shape, &mut rng);
        let want = F::reference(&v, &u, &shape);
        // Everything past the layer's own words is padding.
        let from = F::ELEMENT.words(c) * F::ELEMENT.channels_per_word();
        F::poison(&mut v, &mut u, &shape, from);
        for tier in SimdTier::available() {
            for (name, blocking) in blockings(tier, &shape, F::ELEMENT) {
                for threads in [1, 3] {
                    let mut pool = StaticPool::new(threads);
                    let got = run(tier, &shape, &blocking, &v, &u, &mut pool);
                    let first = got.iter().zip(&want).position(|(g, w)| g != w);
                    assert_eq!(
                        first, None,
                        "{:?} tier={tier} threads={threads} {shape:?} blocking {name} = {blocking:?}: \
                         first differing (t·N + n)·K + k",
                        F::ELEMENT
                    );
                }
            }
        }
    }
}

#[test]
fn u8i8_equals_reference_bit_for_bit() {
    battery::<U8I8>();
}

#[test]
fn i16_equals_reference_bit_for_bit() {
    battery::<I16>();
}

#[test]
fn f32_equals_reference_bit_for_bit() {
    battery::<F32>();
}

#[test]
fn zero_operands_sum_to_positive_zero() {
    // Zeroed panels of every element (`Z̄` finalized, so zero too): every
    // lane of `Z` is the all-zero bit pattern — `+0.0` for f32, whose
    // products `+0·+0` and sums from the `+0.0` seed never turn negative.
    fn zeros<F: Family>() {
        let shape = GemmShape { t: 2, n: 5, c: 4, k: 64 };
        let (v, u) = (VPanelOf::<F>::new(2, 5, 4), UPanelOf::<F>::new(2, 4, 64));
        for tier in SimdTier::available() {
            let blocking = GemmCostModel::new().seed(tier, &shape.as_u8i8(F::ELEMENT));
            let got = run(tier, &shape, &blocking, &v, &u, &mut StaticPool::new(1));
            assert!(got.iter().all(|&b| b == 0), "{:?} tier={tier}", F::ELEMENT);
        }
    }
    zeros::<U8I8>();
    zeros::<I16>();
    zeros::<F32>();
}
