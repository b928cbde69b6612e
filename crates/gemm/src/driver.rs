//! The blocked batched-GEMM driver (paper §4.3.1, Fig. 5).
//!
//! Loop structure per tile position `t` (the batch dimension):
//!
//! ```text
//! for n0 in N  step N_blk:          cache block over tiles
//!   for k0 in K_p step K_blk:       cache block over output channels
//!     for c0 in C_p step C_blk:     cache block over input channels
//!       for n1 in block step row_blk:
//!         for k1 in block step col_blk·16:
//!           microkernel (Fig. 7)
//! ```
//!
//! One driver serves all three element types ([`Operands`]): it addresses
//! the operands as 32-bit words, and a word of 4 u8, 2 i16 or 1 f32
//! channels differs only in the kernel's fold ([`Element`]). A
//! blocking is always in the units of the u8×i8 problem with the same words
//! ([`GemmShape::as_u8i8`]): `c_blk` counts bytes of a `V` row.
//!
//! The first `C` chunk seeds the accumulators with the compensation row
//! `Z̄[t]` (Eq. 9; zeros for the elements that need no compensation);
//! subsequent chunks accumulate into `Z` — the in-cache
//! partial-sum buffer of §4.3.1: a chunk that a later one of the same task
//! reads back is stored with cache-allocating stores, and only the last
//! chunk's finished sums leave with the non-temporal scatter. The walk
//! covers the words the layer's `C` channels fill, not the panel's
//! 64-padded `C_p`: the padding is zero in `U` and inert in `Z̄`, so
//! skipping it leaves `Z` bit-identical.
//!
//! The `(k0, c0)` cache-block walk is *software-pipelined*: each executing
//! worker owns a [`PanelScratch`] of two packing slots, and while the
//! micro-kernel consumes the packed copy of cache block `i` from one slot,
//! the driver prefetches and then packs block `i+1` of the `U` panel into
//! the other. Packing is a straight per-4-channel-group copy into a
//! contiguous buffer — the kernel reads exactly the bytes it would have
//! read in place, in the same order, so `Z` is bitwise identical to the
//! unpipelined walk (including the `Z̄` seed and partial-sum behaviour).
//!
//! Parallelisation follows §4.4: the `T × ⌈N/N_blk⌉` task grid is statically
//! pre-partitioned across the pool's threads (with bounded intra-phase
//! stealing re-balancing the tail — see `lowino_parallel::StealQueues`);
//! tasks touch disjoint `(t, n-range)` regions of `Z`, so the threads never
//! write the same cache line.

use lowino_parallel::StaticPool;
use lowino_simd::store::prefetch_panel_rows;
use lowino_simd::SimdTier;
use lowino_tensor::{round_up, AlignedBuf, LANES};

use core::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use crate::kernel::{microkernel, Blocking, Element, Seed, Store, MAX_COL_BLK, MAX_ROW_BLK};
use crate::panels::{Operands, UPanel, UPanelOf, VPanel, VPanelOf, ZPanel, ZPanelOf, U8I8};

/// Logical dimensions of a batched Winograd GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GemmShape {
    /// Batch size `T = (m+r−1)²` (tile positions).
    pub t: usize,
    /// Rows of `V` — total input tiles `N`.
    pub n: usize,
    /// Inner dimension — input channels `C`.
    pub c: usize,
    /// Columns of `U` — output channels `K`.
    pub k: usize,
}

impl GemmShape {
    /// Multiply-accumulate count (over padded operands).
    pub fn macs(&self) -> u64 {
        self.t as u64 * self.n as u64 * round_up(self.c, 4) as u64 * round_up(self.k, 64) as u64
    }

    /// The u8×i8 problem that moves the same bytes and issues the same
    /// instructions as this one over `elem` (`c = 2C` for i16, `4C` for
    /// f32) — the shape a blocking for it is resolved, keyed and
    /// normalized on, so the cost model and the wisdom need no element.
    pub fn as_u8i8(&self, elem: Element) -> GemmShape {
        GemmShape { c: elem.words(self.c) * 4, ..*self }
    }
}

/// Clamp a requested blocking to a concrete shape, preserving validity.
pub fn normalize_blocking(b: &Blocking, shape: &GemmShape) -> Blocking {
    let cp = round_up(shape.c, 4);
    let kp = round_up(shape.k, 64);
    let mut out = *b;
    out.n_blk = out.n_blk.clamp(1, shape.n.max(1));
    out.c_blk = round_up(out.c_blk.clamp(4, cp), 4);
    out.k_blk = round_up(out.k_blk.clamp(64, kp), 64);
    out.row_blk = out.row_blk.clamp(1, MAX_ROW_BLK);
    // The register tile can never be wider than the dispatch table allows or
    // than one K cache block provides (k_blk/16 ZMM columns); round down to
    // a power of two to stay in the kernel's {1, 2, 4} column set.
    let col_cap = MAX_COL_BLK.min((out.k_blk / 16).max(1));
    out.col_blk = out.col_blk.clamp(1, col_cap);
    out.col_blk = 1 << out.col_blk.ilog2();
    out
}

/// Per-worker double-buffered packing scratch for the pipelined driver.
///
/// Two 64-byte-aligned byte slots: while the micro-kernel consumes the
/// packed copy of `U` cache block `i` from slot `i % 2`, the driver packs
/// block `i+1` into the other slot. The slots grow on first use (to the
/// next power of two, so mixed layer shapes settle quickly) and are reused
/// across tasks, layers and executes — on the executor path they live in
/// the conv crate's per-worker scratch arena, so the steady state performs
/// zero heap allocations (asserted by its counting-allocator test).
#[derive(Default)]
pub struct PanelScratch {
    slots: [AlignedBuf<i8>; 2],
}

impl PanelScratch {
    /// An empty scratch; the slots grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow both slots to hold at least `bytes` each.
    fn ensure(&mut self, bytes: usize) {
        if self.slots[0].len() < bytes {
            let new_len = bytes.next_power_of_two();
            self.slots = [AlignedBuf::zeroed(new_len), AlignedBuf::zeroed(new_len)];
        }
    }

    /// Read pointer to slot `i % 2` (the block being consumed).
    #[inline]
    fn slot_ptr(&self, i: usize) -> *const i8 {
        self.slots[i % 2].as_ptr()
    }

    /// Mutable view of slot `i % 2` (the block being packed).
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut [i8] {
        self.slots[i % 2].as_mut_slice()
    }
}

/// A planned batched GEMM whose task ranges can be executed from any
/// thread — the job-body form used by the executors' single-fork-join path:
/// the GEMM runs as one *phase* of a `StaticPool::run_phases` job instead of
/// issuing its own fork-join, over the panels of any element `E`.
///
/// Tasks enumerate the `T × ⌈N/N_blk⌉` grid; each task owns a disjoint
/// `(t, n-range)` region of `Z`, so any partition of `0..total()` is safe to
/// run concurrently.
pub struct GemmTasks<'a, E: Operands = U8I8> {
    tier: SimdTier,
    shape: GemmShape,
    b: Blocking,
    /// Bytes of each `V` row the walk covers: four per word of real channels.
    c_walk: usize,
    n_chunks: usize,
    v: &'a VPanelOf<E>,
    u: &'a UPanelOf<E>,
    z: &'a ZPanelOf<E::Z>,
}

impl<'a, E: Operands> GemmTasks<'a, E> {
    /// Plan `Z[t] = V[t] × U[t]` (plus `Z̄[t]` where `U` carries it): validate
    /// the panels against `shape` (in channels), normalize the blocking (in
    /// the units of [`GemmShape::as_u8i8`]), and build the task grid. Takes
    /// `z` mutably — exclusivity is held by the plan for its whole lifetime
    /// even though writes go through shared-scatter pointers.
    ///
    /// # Panics
    ///
    /// Panics if panel dimensions disagree with `shape` or the blocking is
    /// invalid.
    pub fn plan(
        tier: SimdTier,
        shape: &GemmShape,
        blocking: &Blocking,
        v: &'a VPanelOf<E>,
        u: &'a UPanelOf<E>,
        z: &'a mut ZPanelOf<E::Z>,
    ) -> Self {
        let (vt, vn, vc, vcp) = v.dims();
        let (ut, uc, ucp, uk, _) = u.dims();
        let (zt, zn, zk, _) = z.dims();
        assert_eq!((vt, vn, vc), (shape.t, shape.n, shape.c), "V panel shape");
        assert_eq!((ut, uc, uk), (shape.t, shape.c, shape.k), "U panel shape");
        assert_eq!((zt, zn, zk), (shape.t, shape.n, shape.k), "Z panel shape");
        assert_eq!(vcp, ucp, "V/U channel padding");
        let words = shape.as_u8i8(E::ELEMENT);
        let b = normalize_blocking(blocking, &words);
        b.validate().expect("invalid blocking");
        let n_chunks = shape.n.div_ceil(b.n_blk).max(1);
        Self { tier, shape: *shape, b, c_walk: words.c, n_chunks, v, u, z }
    }

    /// Number of independent tasks (`T × ⌈N/N_blk⌉`).
    pub fn total(&self) -> usize {
        self.shape.t * self.n_chunks
    }

    /// The normalized blocking the plan will execute with.
    pub fn blocking(&self) -> &Blocking {
        &self.b
    }

    /// Read access to the output panel (for the phase *after* the GEMM —
    /// the borrow on `z` stays alive through the plan).
    pub fn z(&self) -> &ZPanelOf<E::Z> {
        self.z
    }

    /// The packed size (bytes) of the largest `(K_blk, C_blk)` cache block
    /// a task will route through one [`PanelScratch`] slot.
    fn max_block_bytes(&self) -> usize {
        // word-rows × k words × 4 bytes; `normalize_blocking` has clamped
        // `c_blk` to the bytes walked and `k_blk` to the panel.
        self.b.c_blk * self.b.k_blk
    }

    /// Execute a contiguous task range through the worker's packing
    /// scratch (grown here on first use, then allocation-free). Ends with
    /// a store fence so the non-temporal scatter stores are globally
    /// visible before the caller crosses the next phase barrier.
    pub fn run_range(&self, range: Range<usize>, pack: &mut PanelScratch) {
        // One gate check per range, not per task: when tracing is off this
        // is a single relaxed load; when on, the panel-byte, MAC and
        // pack-time totals are accumulated locally and emitted once (zeros
        // included, so traced runs always carry the full counter set).
        let tracing = lowino_trace::enabled();
        let mut panel_bytes = 0u64;
        let mut macs = 0u64;
        let mut pack_ns = 0u64;
        pack.ensure(self.max_block_bytes());
        for task in range {
            let t = task / self.n_chunks;
            let n0 = (task % self.n_chunks) * self.b.n_blk;
            let n_end = (n0 + self.b.n_blk).min(self.shape.n);
            if tracing {
                let (bytes, task_macs) =
                    product_traffic(E::ELEMENT, n_end - n0, self.shape.c, self.u.kp());
                panel_bytes += bytes;
                macs += task_macs;
            }
            self.block(t, n0, n_end, pack, tracing, &mut pack_ns);
        }
        if tracing {
            lowino_trace::counter("gemm/panel_bytes", panel_bytes);
            lowino_trace::counter("gemm/dpbusd_macs", macs);
            lowino_trace::counter("gemm/pack_ns", pack_ns);
            // Whether the chunk this range came from was claimed by a
            // thief rather than its seeded owner (0 for static schedules).
            // An instant, not a counter: counters drop zero deltas, and CI
            // greps need the marker present even on steal-free runs.
            lowino_trace::instant(
                "gemm/steal",
                u64::from(lowino_parallel::chunk_was_stolen()),
            );
        }
        lowino_simd::store::stream_fence();
    }

    /// Run every task as one fork-join of `pool` — the standalone form the
    /// tuner, the tests and the benches use.
    pub fn run(&self, pool: &mut StaticPool) {
        // One packing scratch per pool worker (index-addressed, Mutex only
        // to make the shared capture safe — each slot is driven by one
        // thread per fork-join, so the lock is never contended). Pipelining
        // here too means the tuner's blocking search ranks exactly the
        // configurations the executors will run.
        let scratch: Vec<Mutex<PanelScratch>> =
            (0..pool.threads().max(1)).map(|_| Mutex::new(PanelScratch::new())).collect();
        pool.run(self.total(), |worker, range| {
            let mut pack = match scratch[worker].lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            self.run_range(range, &mut pack);
        });
    }
}

/// Batched low-precision GEMM: `Z[t] = V̄[t] × U[t] + Z̄[t]` for all `t`.
///
/// `V̄` is the +128-compensated u8 panel, `U` the interleaved i8 panel with
/// its compensation rows, and the result is the exact signed product
/// `V×U` (Eq. 9), scattered in the output-transform-friendly `Z` layout.
///
/// Standalone-fork-join wrapper over [`GemmTasks`].
///
/// # Panics
///
/// Panics if panel dimensions disagree with `shape` or the blocking is
/// invalid.
pub fn batched_gemm_u8i8(
    tier: SimdTier,
    shape: &GemmShape,
    blocking: &Blocking,
    v: &VPanel,
    u: &UPanel,
    z: &mut ZPanel,
    pool: &mut StaticPool,
) {
    GemmTasks::plan(tier, shape, blocking, v, u, z).run(pool);
}

/// Operand bytes and MACs of one `rows × C × K_p` product over `elem` (the
/// `gemm/panel_bytes` / `gemm/dpbusd_macs` trace counters — the second
/// keeps its name, whatever the fold): `V` rows read, the `U[t]` panel
/// streamed once, `Z` written, over the words the drivers walk — 4 bytes
/// and `channels_per_word` MACs per lane each.
pub fn product_traffic(elem: Element, rows: usize, c: usize, kp: usize) -> (u64, u64) {
    let (rows, words, kp) = (rows as u64, elem.words(c) as u64, kp as u64);
    (
        4 * (rows * words + words * kp + rows * kp),
        rows * words * elem.channels_per_word() as u64 * kp,
    )
}

/// Stage ② of the depth-first schedule: all `T` products of **one block of
/// tiles**, out of and into one worker's cache-resident blocks.
///
/// The operands are not panels but two plain buffers the executing worker
/// owns — `V` as `[T][nb][C_p]` and `Z` as `[K_p/64][nb][T][64]` (per tile
/// the `T × 64` layout [`ZPanelOf::tile_block`] hands the output
/// transform) — so the stores are cache-allocating ([`Store::Cached`]) and
/// nothing is fenced. Each micro-kernel call runs the full depth of the
/// layer's words out of `U[t]` in place: the accumulators never leave the
/// registers half-summed, and `U` — small enough to share L2 with the
/// blocks, or this schedule is not chosen — is neither packed nor
/// re-streamed. Per-element arithmetic is the staged driver's (same seed,
/// same channel order), so `Z` is bit-identical.
///
/// A driver of its own rather than a mode of [`GemmTasks`]: it reads
/// `U[t]` in place and stores cache-allocating into worker-private blocks,
/// where the staged walk packs `U` and streams into a shared panel — folded
/// together, the staged driver would branch on its caller.
pub struct BlockGemm<'a, E: Operands = U8I8> {
    tier: SimdTier,
    u: &'a UPanelOf<E>,
    c: usize,
    row_blk: usize,
    col_blk: usize,
}

impl<'a, E: Operands> BlockGemm<'a, E> {
    /// Validate `u` against `shape` (in channels) and take the register tile
    /// of the (normalized) `blocking`; its cache-block sizes do not apply
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if the panel disagrees with `shape` or the blocking is invalid.
    pub fn plan(tier: SimdTier, shape: &GemmShape, blocking: &Blocking, u: &'a UPanelOf<E>) -> Self {
        let (ut, uc, _, uk, _) = u.dims();
        assert_eq!((ut, uc, uk), (shape.t, shape.c, shape.k), "U panel shape");
        let b = normalize_blocking(blocking, &shape.as_u8i8(E::ELEMENT));
        b.validate().expect("invalid blocking");
        Self { tier, u, c: shape.c, row_blk: b.row_blk, col_blk: b.col_blk }
    }

    /// `V` lanes of a block with room for `nb` tiles.
    pub fn v_len(&self, nb: usize) -> usize {
        self.u.dims().0 * nb * self.u.cp()
    }

    /// `Z` lanes of a block with room for `nb` tiles.
    pub fn z_len(&self, nb: usize) -> usize {
        self.u.dims().0 * nb * self.u.kp()
    }

    /// `(gemm/panel_bytes, gemm/dpbusd_macs)` of one [`Self::run`] over
    /// `rows` tiles, for the caller's trace counters.
    pub fn traffic(&self, rows: usize) -> (u64, u64) {
        let t = self.u.dims().0 as u64;
        let (bytes, macs) = product_traffic(E::ELEMENT, rows, self.c, self.u.kp());
        (t * bytes, t * macs)
    }

    /// `Z[t] = V[t] × U[t]` (plus `Z̄[t]` where `U` carries it) for every
    /// `t`, over the first `rows` tiles of blocks laid out for `nb`.
    ///
    /// # Panics
    ///
    /// Panics if `rows > nb` or a block is shorter than
    /// [`Self::v_len`]/[`Self::z_len`] of `nb`.
    pub fn run(&self, nb: usize, rows: usize, v: &[E::V], z: &mut [E::Z]) {
        let (t_count, _, cp, _, kp) = self.u.dims();
        assert!(rows <= nb, "{rows} tiles in a block of {nb}");
        assert!(v.len() >= self.v_len(nb) && z.len() >= self.z_len(nb), "block too short");
        let words = E::ELEMENT.words(self.c);
        let v_stride = cp * size_of::<E::V>();
        let z_stride = t_count * LANES;
        // `col_blk ∈ {1, 2, 4}` ZMM columns divide a 64-lane group, so a
        // register tile never straddles two `Z` channel groups.
        let k_step = self.col_blk * 16;
        debug_assert!(LANES.is_multiple_of(k_step) && kp.is_multiple_of(LANES));
        for t in 0..t_count {
            let zbar = self.u.compensation(t);
            // K outer, tiles inner: one `col_blk`-wide strip of `U[t]`
            // stays in L1 while the block's rows stream past it.
            for k1 in (0..kp).step_by(k_step) {
                let (kg, kl) = (k1 / LANES, k1 % LANES);
                let mut n1 = 0;
                while n1 < rows {
                    let rb = (rows - n1).min(self.row_blk);
                    let v_off = (t * nb + n1) * cp;
                    let z_off = ((kg * nb + n1) * t_count + t) * LANES + kl;
                    debug_assert!(v_off + (rb - 1) * cp + words * 4 / size_of::<E::V>() <= v.len());
                    debug_assert!(z_off + (rb - 1) * z_stride + k_step <= z.len());
                    debug_assert!(zbar.is_none_or(|zbar| k1 + k_step <= zbar.len()));
                    // SAFETY: `rb` rows of the layer's `words` words at pitch
                    // `C_p` lanes from row `(t, n1)` lie inside the `V` block
                    // and `rb` rows of `k_step` lanes `T·64` apart from
                    // `(kg, n1, t, kl)` inside the `Z` block (lengths
                    // asserted above, `n1 + rb ≤ rows ≤ nb`); `U[t]` holds at
                    // least `words` word-rows of `K_p·4` bytes, so
                    // `col_blk·64` bytes from `k1` stay inside each; `Z̄[t]`
                    // holds `K_p ≥ k1 + k_step` sums; `z` is exclusively
                    // borrowed, and a `Z` lane is 32 bits whatever its type.
                    unsafe {
                        let seed = match zbar {
                            Some(zbar) => Seed::Zbar(zbar.as_ptr().add(k1)),
                            None => Seed::Zero,
                        };
                        microkernel(
                            self.tier,
                            E::ELEMENT,
                            rb,
                            self.col_blk,
                            v.as_ptr().add(v_off) as *const u8,
                            v_stride,
                            self.u.block_ptr(t, k1),
                            self.u.word_stride(),
                            words,
                            seed,
                            z.as_mut_ptr().add(z_off) as *mut i32,
                            z_stride,
                            Store::Cached,
                        );
                    }
                    n1 += rb;
                }
            }
        }
    }
}

impl<E: Operands> GemmTasks<'_, E> {
    /// One (t, N-chunk) task — everything below here is single-threaded.
    ///
    /// The cache-block walk is software-pipelined through the two
    /// [`PanelScratch`] slots: block `i`'s packed `U` copy is consumed from
    /// slot `i % 2` while block `i+1`'s source stream is prefetch-hinted up
    /// front and packed into the other slot once the compute for `i`
    /// retires. The packed copy holds byte-for-byte what the in-place walk
    /// would have read (same values, same loop and store order), so `Z` —
    /// including the `Z̄` compensation seed of the first `C` chunk and the
    /// partial-sum accumulate walk of the later ones — is bitwise identical.
    fn block(
        &self,
        t: usize,
        n0: usize,
        n_end: usize,
        pack: &mut PanelScratch,
        tracing: bool,
        pack_ns: &mut u64,
    ) {
        let (tier, b, v, u, z, kp, c_walk) =
            (self.tier, &self.b, self.v, self.u, self.z, self.u.kp(), self.c_walk);
        let zbar = u.compensation(t);
        let z_stride = z.n_stride();
        let v_row = |n: usize| v.row_ptr(t, n) as *const u8;
        // The (k0, c0) cache blocks in walk order: k outer, c inner — over
        // the `c_walk` bytes of real channels only (see the module docs).
        debug_assert!(c_walk.is_multiple_of(4) && c_walk <= v.row_bytes());
        let c_chunks = c_walk.div_ceil(b.c_blk);
        let blocks = kp.div_ceil(b.k_blk) * c_chunks;
        let bounds = |i: usize| {
            let k0 = (i / c_chunks) * b.k_blk;
            let c0 = (i % c_chunks) * b.c_blk;
            (k0, (k0 + b.k_blk).min(kp), c0, (c0 + b.c_blk).min(c_walk))
        };
        // Pipeline prologue: block 0 has no compute to hide behind.
        pack_block(u, t, bounds(0), pack.slot_mut(0), tracing, pack_ns);
        for i in 0..blocks {
            let (k0, k_end, c0, c_end) = bounds(i);
            let words = (c_end - c0) / 4;
            let first_chunk = c0 == 0;
            // A partial sum the next C chunk of this task accumulates into
            // stays in cache; only finished sums take the streaming scatter.
            let store = if c_end == c_walk { Store::Stream } else { Store::Cached };
            // The packed block is contiguous: word-rows (k_end-k0)·4 bytes
            // apart, exactly the stride the micro-kernel parameterises over.
            let packed_stride = (k_end - k0) * 4;
            let packed = pack.slot_ptr(i);
            if i + 1 < blocks {
                // Prime the next block's U source stream (one line per
                // word-row) so the pack after this block's compute copies
                // out of cache instead of stalling on DRAM.
                let (nk0, _, nc0, nc_end) = bounds(i + 1);
                // SAFETY: offsets in bounds (see the microkernel SAFETY note).
                let src = unsafe { u.block_ptr(t, nk0).add((nc0 / 4) * u.word_stride()) };
                prefetch_panel_rows(tier, src as *const u8, u.word_stride(), (nc_end - nc0) / 4);
            }
            // And this block's V rows at the current channel offset (the
            // kernel itself only reaches one register-row block ahead).
            // SAFETY: (t, n0) is a valid row and c0 < its bytes.
            prefetch_panel_rows(tier, unsafe { v_row(n0).add(c0) }, v.row_bytes(), n_end - n0);
            let mut n1 = n0;
            while n1 < n_end {
                let rb = (n_end - n1).min(b.row_blk);
                let mut k1 = k0;
                while k1 < k_end {
                    let cb = ((k_end - k1) / 16).min(b.col_blk);
                    debug_assert!(cb > 0);
                    let seed = if !first_chunk {
                        Seed::Accumulate
                    } else if let Some(zbar) = zbar {
                        // SAFETY: `Z̄[t]` holds `K_p > k1` sums.
                        Seed::Zbar(unsafe { zbar.as_ptr().add(k1) })
                    } else {
                        Seed::Zero
                    };
                    // SAFETY: all offsets are within the panels by the loop
                    // bounds (`c_end ≤ c_walk ≤` the bytes of each V row);
                    // the packed slot holds the full cache block (`ensure`
                    // sized it); `store_ptr_shared` regions are disjoint per
                    // task (distinct (t, n) ranges), and a `Z` lane is 32
                    // bits wide whatever its type ([`Lane`]).
                    unsafe {
                        microkernel(
                            tier,
                            E::ELEMENT,
                            rb,
                            cb,
                            v_row(n1).add(c0),
                            v.row_bytes(),
                            packed.add((k1 - k0) * 4),
                            packed_stride,
                            words,
                            seed,
                            z.store_ptr_shared(t, n1, k1) as *mut i32,
                            z_stride,
                            store,
                        );
                    }
                    k1 += cb * 16;
                }
                n1 += rb;
            }
            if i + 1 < blocks {
                // Produce block i+1 into the other slot while its consumer
                // (the next loop iteration) is still a branch away — the
                // copy overlaps with the retiring non-temporal stores above.
                pack_block(u, t, bounds(i + 1), pack.slot_mut(i + 1), tracing, pack_ns);
            }
        }
    }
}

/// Pack one `(k0..k_end, c0..c_end)` cache block of `U[t]` contiguously
/// into `dst`: word-row `w`'s K run — `(k_end-k0)·4` bytes, contiguous in
/// the source because K is the fastest dimension within a word-row — lands
/// at offset `w·(k_end-k0)·4`. One straight copy per word-row.
fn pack_block<E: Operands>(
    u: &UPanelOf<E>,
    t: usize,
    (k0, k_end, c0, c_end): (usize, usize, usize, usize),
    dst: &mut [i8],
    tracing: bool,
    pack_ns: &mut u64,
) {
    let t0 = if tracing { Some(Instant::now()) } else { None };
    let kw4 = (k_end - k0) * 4;
    let words = (c_end - c0) / 4;
    debug_assert!(dst.len() >= words * kw4);
    for w in 0..words {
        // SAFETY: the source run `(c0/4 + w)·kp·4 + k0·4 .. + kw4` lies
        // inside tile `t`'s word-rows (c_end ≤ the padded row, k_end ≤ kp);
        // `dst` is sized by `PanelScratch::ensure`.
        unsafe {
            core::ptr::copy_nonoverlapping(
                u.block_ptr(t, k0).add((c0 / 4 + w) * u.word_stride()),
                dst.as_mut_ptr().add(w * kw4),
                kw4,
            );
        }
    }
    if let Some(t0) = t0 {
        *pack_ns += t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::{F32, I16};
    use crate::reference::{reference_gemm, reference_gemm_f32, reference_gemm_i16};

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

    fn check(shape: GemmShape, blocking: Blocking, threads: usize, tier: SimdTier) {
        let (v, u) = fill_panels(&shape, 0xC0FFEE ^ (shape.n as u64) << 8 ^ shape.k as u64);
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
                        "t={t} n={n} k={k} (shape={shape:?})"
                    );
                }
            }
        }
    }

    /// Poison the padding channels (`round_up(C, 4)..C_p`) of both operands
    /// *after* the compensation rows are final: a driver that walks them no
    /// longer matches the reference, one that walks only the real channels
    /// does.
    fn poison_padding(v: &mut VPanel, u: &mut UPanel, shape: &GemmShape) {
        for t in 0..shape.t {
            for c in round_up(shape.c, 4)..u.cp() {
                for n in 0..shape.n {
                    v.set(t, n, c, 128);
                }
                for k in 0..shape.k {
                    u.set(t, c, k, 0x55);
                }
            }
        }
    }

    #[test]
    fn walks_only_the_layers_channels() {
        // Regression: `c_blk` is clamped to `round_up(C, 4)` but the walk
        // used to cover the 64-padded panel — a C = 3 layer ran 16 chunks
        // of one 4-channel group, 15 of them zeros, each re-reading the
        // stream-stored partial sums of the one before.
        let tier = SimdTier::detect();
        for c in [3, 8, 37, 70] {
            let shape = GemmShape { t: 2, n: 19, c, k: 70 };
            for c_blk in [4, 16, 512] {
                let blocking = Blocking { n_blk: 7, c_blk, k_blk: 64, row_blk: 4, col_blk: 2 };
                let (mut v, mut u) = fill_panels(&shape, 0xC4 ^ c as u64);
                let want = reference_gemm(&v, &u, &shape);
                poison_padding(&mut v, &mut u, &shape);
                let mut z = ZPanel::new(shape.t, shape.n, shape.k);
                let mut pool = StaticPool::new(2);
                batched_gemm_u8i8(tier, &shape, &blocking, &v, &u, &mut z, &mut pool);
                for t in 0..shape.t {
                    for n in 0..shape.n {
                        for k in 0..shape.k {
                            assert_eq!(
                                z.get(t, n, k),
                                want[(t * shape.n + n) * shape.k + k],
                                "c={c} c_blk={c_blk} t={t} n={n} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Random panels of another element: `value` maps a random word to one
    /// `V` and one `U` value.
    fn other_panels<E: Operands>(
        shape: &GemmShape,
        seed: u64,
        value: impl Fn(u64) -> (E::V, E::U),
    ) -> (VPanelOf<E>, UPanelOf<E>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            value(s)
        };
        let (mut v, mut u) = (VPanelOf::new(shape.t, shape.n, shape.c), UPanelOf::new(shape.t, shape.c, shape.k));
        for t in 0..shape.t {
            for c in 0..shape.c {
                (0..shape.n).for_each(|n| v.set(t, n, c, next().0));
                (0..shape.k).for_each(|k| u.set(t, c, k, next().1));
            }
        }
        (v, u)
    }

    /// Poison channels `from..C_p` of both operands (as [`poison_padding`]).
    fn poison_other<E: Operands>(
        v: &mut VPanelOf<E>,
        u: &mut UPanelOf<E>,
        shape: &GemmShape,
        from: usize,
        (pv, pu): (E::V, E::U),
    ) {
        for t in 0..shape.t {
            for c in from..u.cp() {
                (0..shape.n).for_each(|n| v.set(t, n, c, pv));
                (0..u.kp()).for_each(|k| u.set(t, c, k, pu));
            }
        }
    }

    /// The depth-first entry point on a tile block cut out of the middle of
    /// a panel of element `E`, against `want` (the reference, as bits).
    #[allow(clippy::too_many_arguments)]
    fn block_case<E: Operands>(
        tier: SimdTier,
        shape: &GemmShape,
        (v, u): (&VPanelOf<E>, &UPanelOf<E>),
        want: &[u32],
        (v_fill, z_fill): (E::V, E::Z),
        bits: fn(E::Z) -> u32,
        (row_blk, col_blk): (usize, usize),
    ) {
        let (c, k) = (shape.c, shape.k);
        let blocking = Blocking { n_blk: 96, c_blk: 512, k_blk: 64, row_blk, col_blk };
        let gemm = BlockGemm::plan(tier, shape, &blocking, u);
        let (nb, tile0) = (12, 5);
        for rows in [12, 7, 1] {
            let cp = v.cp();
            let mut vb = vec![v_fill; gemm.v_len(nb)];
            for t in 0..shape.t {
                for i in 0..rows {
                    vb[(t * nb + i) * cp..][..cp].copy_from_slice(v.row(t, tile0 + i));
                }
            }
            let mut zb = vec![z_fill; gemm.z_len(nb)];
            gemm.run(nb, rows, &vb, &mut zb);
            for t in 0..shape.t {
                for i in 0..rows {
                    for k in 0..shape.k {
                        let at = (((k / LANES) * nb + i) * shape.t + t) * LANES + k % LANES;
                        assert_eq!(
                            bits(zb[at]),
                            want[(t * shape.n + tile0 + i) * shape.k + k],
                            "{:?} tier={tier} c={c} k={k} rows={rows} t={t} i={i}",
                            E::ELEMENT
                        );
                    }
                }
            }
            // Tiles past `rows` are not this call's to write.
            let beyond = ((nb - 1) * shape.t) * LANES;
            assert!(rows == nb || bits(zb[beyond]) == bits(z_fill));
        }
        let (bytes, macs) = gemm.traffic(5);
        let cw = E::ELEMENT.channels_per_word();
        assert_eq!(macs, (shape.t * 5 * round_up(c, cw) * round_up(k, 64)) as u64);
        assert!(bytes > macs / round_up(c, cw) as u64);
    }

    #[test]
    fn block_gemm_matches_reference_all_tiers() {
        // The depth-first entry point on a tile block cut out of the middle
        // of a panel, for every element: full and short blocks, C and K off
        // every grid, every register tile shape, padding poisoned as above.
        for tier in SimdTier::available() {
            for (c, k, row_blk, col_blk) in [(3, 16, 6, 4), (8, 64, 8, 2), (37, 70, 3, 1), (70, 130, 5, 4)] {
                let shape = GemmShape { t: 3, n: 23, c, k };
                let tile = (row_blk, col_blk);
                let (mut v, mut u) = fill_panels(&shape, 0xB10C ^ (c * k) as u64);
                let want: Vec<u32> = reference_gemm(&v, &u, &shape).into_iter().map(|x| x as u32).collect();
                poison_padding(&mut v, &mut u, &shape);
                block_case(tier, &shape, (&v, &u), &want, (0xEE, i32::MIN), |z| z as u32, tile);

                let (mut v, mut u) = other_panels::<I16>(&shape, 0x16 ^ (c * k) as u64, |s| {
                    ((s % 25401) as i16 - 12700, (s >> 20) as i16 % 128)
                });
                let want: Vec<u32> =
                    reference_gemm_i16(&v, &u, &shape).into_iter().map(|x| x as u32).collect();
                poison_other(&mut v, &mut u, &shape, round_up(c, 2), (111, -77));
                block_case(tier, &shape, (&v, &u), &want, (0x5EEE, i32::MIN), |z| z as u32, tile);

                let (mut v, mut u) = other_panels::<F32>(&shape, 0xF32 ^ (c * k) as u64, |s| {
                    ((s % 2001) as f32 * 0.04 - 40.0, (s >> 20) as u16 as f32 / 21845.0 - 1.5)
                });
                let want: Vec<u32> = reference_gemm_f32(&v, &u, &shape).into_iter().map(f32::to_bits).collect();
                poison_other(&mut v, &mut u, &shape, c, (f32::NAN, 3.0));
                block_case(tier, &shape, (&v, &u), &want, (f32::NAN, f32::NAN), f32::to_bits, tile);
            }
        }
    }

    #[test]
    fn traffic_counts_each_elements_own_bytes_and_macs() {
        // 5 rows of C = 37 channels against K_p = 128: the channels round up
        // to whole words (40 u8, 38 i16, 37 f32), a channel is 1 / 2 / 4
        // bytes in `V` and per `k` in `U`, and each is one MAC per lane.
        let z_bytes = 5 * 128 * 4;
        for (elem, channels, bytes_per) in
            [(Element::U8I8, 40, 1), (Element::I16, 38, 2), (Element::F32, 37, 4)]
        {
            let (bytes, macs) = product_traffic(elem, 5, 37, 128);
            assert_eq!(macs, 5 * channels * 128, "{elem:?}");
            assert_eq!(bytes, (5 + 128) * channels * bytes_per + z_bytes, "{elem:?}");
        }
    }

    #[test]
    fn normalize_clamps_oversized_col_blk() {
        // Regression: col_blk used to survive normalization unclamped, so an
        // oversized request reached `validate()` and panicked.
        let shape = GemmShape { t: 1, n: 16, c: 32, k: 128 };
        let mut b = Blocking::default_for(&shape);
        b.col_blk = 8;
        let norm = normalize_blocking(&b, &shape);
        assert_eq!(norm.col_blk, MAX_COL_BLK);
        norm.validate().expect("normalized blocking must be valid");
        // Non-power-of-two requests round down into the kernel's {1,2,4}.
        b.col_blk = 3;
        assert_eq!(normalize_blocking(&b, &shape).col_blk, 2);
        b.col_blk = 0;
        assert_eq!(normalize_blocking(&b, &shape).col_blk, 1);
        // And the clamped blocking actually runs.
        let mut big = Blocking::default_for(&shape);
        big.col_blk = 16;
        big.row_blk = 4;
        check(shape, big, 2, SimdTier::detect());
    }

    #[test]
    fn gemm_tasks_split_ranges_match_whole_run() {
        // Running the planned tasks in arbitrary chunks must equal the
        // one-shot driver (tasks own disjoint Z regions).
        let shape = GemmShape { t: 3, n: 17, c: 24, k: 64 };
        let blocking = Blocking {
            n_blk: 4,
            c_blk: 16,
            k_blk: 64,
            row_blk: 3,
            col_blk: 2,
        };
        let (v, u) = fill_panels(&shape, 0xBEEF);
        let tier = SimdTier::detect();
        let mut z_whole = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(tier, &shape, &blocking, &v, &u, &mut z_whole, &mut pool);
        let mut z_split = ZPanel::new(shape.t, shape.n, shape.k);
        let tasks = GemmTasks::plan(tier, &shape, &blocking, &v, &u, &mut z_split);
        let total = tasks.total();
        assert_eq!(total, shape.t * shape.n.div_ceil(blocking.n_blk));
        let mut pack = PanelScratch::new();
        let mut at = 0;
        for step in [1usize, 3, 2, 5] {
            let end = (at + step).min(total);
            tasks.run_range(at..end, &mut pack);
            at = end;
        }
        tasks.run_range(at..total, &mut pack);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    assert_eq!(tasks.z().get(t, n, k), z_whole.get(t, n, k), "t={t} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_various_shapes() {
        let tier = SimdTier::detect();
        for shape in [
            GemmShape { t: 1, n: 1, c: 4, k: 16 },
            GemmShape { t: 1, n: 13, c: 20, k: 64 },
            GemmShape { t: 4, n: 29, c: 64, k: 128 },
            GemmShape { t: 16, n: 10, c: 37, k: 70 },
        ] {
            check(shape, Blocking::default_for(&shape), 1, tier);
        }
    }

    #[test]
    fn matches_reference_with_cache_chunking() {
        // Force multiple C and K chunks to exercise the accumulate path.
        let shape = GemmShape { t: 2, n: 40, c: 136, k: 192 };
        let blocking = Blocking {
            n_blk: 16,
            c_blk: 64,
            k_blk: 64,
            row_blk: 6,
            col_blk: 4,
        };
        check(shape, blocking, 1, SimdTier::detect());
    }

    #[test]
    fn matches_reference_multi_threaded() {
        let shape = GemmShape { t: 4, n: 53, c: 32, k: 64 };
        let blocking = Blocking {
            n_blk: 8,
            c_blk: 32,
            k_blk: 64,
            row_blk: 4,
            col_blk: 2,
        };
        check(shape, blocking, 4, SimdTier::detect());
    }

    #[test]
    fn all_tiers_agree() {
        let shape = GemmShape { t: 2, n: 9, c: 24, k: 64 };
        for tier in SimdTier::available() {
            check(shape, Blocking::default_for(&shape), 1, tier);
        }
    }

    #[test]
    fn odd_register_tiles() {
        let shape = GemmShape { t: 1, n: 23, c: 16, k: 128 };
        for (row_blk, col_blk) in [(1, 1), (3, 2), (8, 2), (5, 4), (8, 1)] {
            let blocking = Blocking {
                n_blk: 7,
                c_blk: 16,
                k_blk: 64,
                row_blk,
                col_blk,
            };
            check(shape, blocking, 2, SimdTier::detect());
        }
    }

    #[test]
    #[should_panic(expected = "V panel shape")]
    fn shape_mismatch_panics() {
        let shape = GemmShape { t: 1, n: 4, c: 8, k: 16 };
        let v = VPanel::new(1, 5, 8); // wrong N
        let mut u = UPanel::new(1, 8, 16);
        u.finalize_compensation();
        let mut z = ZPanel::new(1, 4, 16);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(
            SimdTier::detect(),
            &shape,
            &Blocking::default_for(&shape),
            &v,
            &u,
            &mut z,
            &mut pool,
        );
    }

    #[test]
    fn compensation_equivalence_property() {
        // The headline algebra of Eq. 9: running the kernel on V+128 with
        // Z̄ = −128·colsum(U) equals the plain signed product V×U.
        let shape = GemmShape { t: 1, n: 6, c: 12, k: 64 };
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Signed logical inputs in i8 range.
        let v_signed: Vec<i32> = (0..shape.n * shape.c)
            .map(|_| (next() % 255) as i32 - 127)
            .collect();
        let u_signed: Vec<i32> = (0..shape.c * shape.k)
            .map(|_| (next() % 255) as i32 - 127)
            .collect();
        let mut v = VPanel::new(shape.t, shape.n, shape.c);
        let mut u = UPanel::new(shape.t, shape.c, shape.k);
        for n in 0..shape.n {
            for c in 0..shape.c {
                v.set(0, n, c, (v_signed[n * shape.c + c] + 128) as u8);
            }
        }
        for c in 0..shape.c {
            for k in 0..shape.k {
                u.set(0, c, k, u_signed[c * shape.k + k] as i8);
            }
        }
        u.finalize_compensation();
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(
            SimdTier::detect(),
            &shape,
            &Blocking::default_for(&shape),
            &v,
            &u,
            &mut z,
            &mut pool,
        );
        for n in 0..shape.n {
            for k in 0..shape.k {
                let want: i32 = (0..shape.c)
                    .map(|c| v_signed[n * shape.c + c] * u_signed[c * shape.k + k])
                    .sum();
                assert_eq!(z.get(0, n, k), want, "n={n} k={k}");
            }
        }
    }
}
