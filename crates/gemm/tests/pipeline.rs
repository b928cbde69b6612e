//! The pipelined driver's bitwise-identity contract.
//!
//! The double-buffered packing walk must be invisible in the output: for
//! every SIMD tier, thread count and cache blocking — including blockings
//! that force many `(K_blk, C_blk)` blocks so the two scratch slots
//! actually cycle — the packed pipeline produces *exactly* the integers of
//! the naive reference (i32 arithmetic is exact, so equality is bitwise).
//! `ci/check.sh` runs this file under every `LOWINO_FORCE_TIER`.

use lowino_gemm::reference::reference_gemm;
use lowino_gemm::{
    batched_gemm_u8i8, Blocking, GemmShape, GemmTasks, PanelScratch, UPanel, VPanel, ZPanel,
};
use lowino_parallel::StaticPool;
use lowino_simd::SimdTier;

fn fill_panels(shape: &GemmShape, seed: u64) -> (VPanel, UPanel) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut v = VPanel::new(shape.t, shape.n, shape.c);
    for t in 0..shape.t {
        for n in 0..shape.n {
            for c in 0..shape.c {
                v.set(t, n, c, (next() & 0xFF) as u8);
            }
        }
    }
    let mut u = UPanel::new(shape.t, shape.c, shape.k);
    for t in 0..shape.t {
        for c in 0..shape.c {
            for k in 0..shape.k {
                u.set(t, c, k, (next() & 0xFF) as u8 as i8);
            }
        }
    }
    u.finalize_compensation();
    (v, u)
}

fn assert_matches_reference(
    shape: GemmShape,
    blocking: Blocking,
    threads: usize,
    tier: SimdTier,
) {
    let (v, u) = fill_panels(&shape, 0x9E3779B9 ^ (shape.c as u64) << 16 ^ shape.k as u64);
    let mut z = ZPanel::new(shape.t, shape.n, shape.k);
    let mut pool = StaticPool::new(threads);
    batched_gemm_u8i8(tier, &shape, &blocking, &v, &u, &mut z, &mut pool);
    let want = reference_gemm(&v, &u, &shape);
    for t in 0..shape.t {
        for n in 0..shape.n {
            for k in 0..shape.k {
                assert_eq!(
                    z.get(t, n, k),
                    want[(t * shape.n + n) * shape.k + k],
                    "tier={tier} threads={threads} t={t} n={n} k={k} ({shape:?}, {blocking:?})"
                );
            }
        }
    }
}

/// Multi-block shapes across every available tier: 2×3 cache blocks over
/// (K, C) make the two slots alternate through five pack hand-offs per
/// task, and the C chunking exercises the Z̄-seed → accumulate transition
/// on packed operands.
#[test]
fn pipelined_blocks_match_reference_all_tiers() {
    let shape = GemmShape { t: 2, n: 21, c: 88, k: 192 };
    let blocking = Blocking { n_blk: 8, c_blk: 32, k_blk: 64, row_blk: 6, col_blk: 2 };
    for tier in SimdTier::available() {
        assert_matches_reference(shape, blocking, 1, tier);
        assert_matches_reference(shape, blocking, 3, tier);
    }
}

/// A single cache block degenerates the pipeline to prologue-pack + one
/// compute — the epilogue must not pack (or read) a phantom second block.
#[test]
fn single_block_pipeline_matches_reference() {
    let shape = GemmShape { t: 1, n: 9, c: 16, k: 64 };
    let blocking = Blocking { n_blk: 16, c_blk: 64, k_blk: 64, row_blk: 4, col_blk: 4 };
    for tier in SimdTier::available() {
        assert_matches_reference(shape, blocking, 1, tier);
    }
}

/// Uneven tails: blockings that leave partial final blocks in both C and K
/// (packed stride ≠ full-block stride on the last column of blocks).
#[test]
fn ragged_tail_blocks_match_reference() {
    let shape = GemmShape { t: 3, n: 13, c: 100, k: 130 };
    let blocking = Blocking { n_blk: 5, c_blk: 64, k_blk: 128, row_blk: 3, col_blk: 1 };
    assert_matches_reference(shape, blocking, 2, SimdTier::detect());
}

/// `c_blk` below the 64-padded `C_p` with `C` off the 4-channel grid: the
/// walk is `⌈round_up(C, 4)/c_blk⌉` chunks — the layer's channels, not the
/// panel's padding — and every chunk but the last hands its partial sums to
/// the next through cache-allocating stores.
#[test]
fn c_chunks_cover_the_layers_channels_not_the_padding() {
    for tier in SimdTier::available() {
        for (c, c_blk) in [(3, 4), (8, 4), (37, 16), (70, 32)] {
            let shape = GemmShape { t: 2, n: 14, c, k: 64 };
            let blocking = Blocking { n_blk: 5, c_blk, k_blk: 64, row_blk: 3, col_blk: 4 };
            assert_matches_reference(shape, blocking, 2, tier);
        }
    }
}

/// One `PanelScratch` reused across plans of different shapes: the slots
/// grow to the largest block and smaller follow-up layers must not shrink,
/// move, or corrupt them — the executor-arena reuse pattern.
#[test]
fn scratch_reuse_across_shapes_stays_exact() {
    let tier = SimdTier::detect();
    let mut pack = PanelScratch::new();
    for (shape, blocking) in [
        (
            GemmShape { t: 1, n: 7, c: 72, k: 128 },
            Blocking { n_blk: 4, c_blk: 32, k_blk: 64, row_blk: 2, col_blk: 2 },
        ),
        (
            GemmShape { t: 2, n: 5, c: 12, k: 64 },
            Blocking { n_blk: 8, c_blk: 64, k_blk: 64, row_blk: 5, col_blk: 1 },
        ),
        (
            GemmShape { t: 1, n: 11, c: 140, k: 256 },
            Blocking { n_blk: 6, c_blk: 64, k_blk: 128, row_blk: 6, col_blk: 4 },
        ),
    ] {
        let (v, u) = fill_panels(&shape, 0xF00D ^ shape.n as u64);
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        let tasks = GemmTasks::plan(tier, &shape, &blocking, &v, &u, &mut z);
        tasks.run_range(0..tasks.total(), &mut pack);
        let want = reference_gemm(&v, &u, &shape);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    assert_eq!(
                        tasks.z().get(t, n, k),
                        want[(t * shape.n + n) * shape.k + k],
                        "t={t} n={n} k={k} ({shape:?})"
                    );
                }
            }
        }
    }
}

/// Traced pipelined runs always carry the new counters — `gemm/pack_ns`
/// (pack time) and `gemm/steal` (thief-claimed chunk flag), emitted even
/// when zero so CI greps are deterministic. The recorder is process-global;
/// concurrent sibling tests may add events to the ring, but only this test
/// drains and asserts, and presence is monotone under extra traffic.
#[test]
fn traced_run_emits_pack_and_steal_counters() {
    let shape = GemmShape { t: 1, n: 6, c: 24, k: 64 };
    let blocking = Blocking { n_blk: 4, c_blk: 8, k_blk: 64, row_blk: 2, col_blk: 2 };
    let (v, u) = fill_panels(&shape, 0xBEE);
    let mut z = ZPanel::new(shape.t, shape.n, shape.k);
    let mut pool = StaticPool::new(2);
    lowino_trace::set_enabled(true);
    batched_gemm_u8i8(SimdTier::detect(), &shape, &blocking, &v, &u, &mut z, &mut pool);
    let threads = lowino_trace::drain();
    lowino_trace::set_enabled(false);
    let names: Vec<&str> = threads
        .iter()
        .flat_map(|th| th.events.iter().map(|e| e.name))
        .collect();
    assert!(names.contains(&"gemm/pack_ns"), "missing gemm/pack_ns in {names:?}");
    assert!(names.contains(&"gemm/steal"), "missing gemm/steal in {names:?}");
    lowino_trace::reset();
}
