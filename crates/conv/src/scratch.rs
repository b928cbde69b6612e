//! Persistent per-worker scratch arenas.
//!
//! Every executor stage needs small thread-local working buffers (gathered
//! patches, transformed tiles, de-quantized `Z` blocks, GEMM accumulators).
//! Allocating them inside the stage closures — the pre-PR-2 design — put a
//! handful of `malloc`/`free` pairs on every fork-join of every layer. The
//! arena moves that state into [`crate::ConvContext`]: one cache-line
//! aligned slot per pool worker, grown on first use and reused across
//! stages, executes and layers. After the first `execute` on a given shape
//! the steady state performs **zero heap allocations** (asserted by the
//! `steady_state_alloc` integration test).
//!
//! Concurrency: during a fork-join, worker `w` is the only thread that
//! touches slot `w`, so the per-slot [`Mutex`] is never contended — it
//! exists to make the shared `&ScratchArena` capture safe without `unsafe`,
//! and costs one uncontended atomic per phase. `#[repr(align(64))]` keeps
//! neighbouring slots off each other's cache lines (the buffers themselves
//! are heap-allocated and 64-byte aligned via [`AlignedBuf`]).

use std::sync::{Mutex, MutexGuard};

use lowino_gemm::PanelScratch;
use lowino_tensor::AlignedBuf;
use lowino_winograd::TransformScratch;

/// The per-worker buffer set. Fields are public so a stage body can
/// destructure the guard and borrow several buffers mutably at once.
///
/// Buffer roles are by convention (sizes are whatever the last user grew
/// them to — contents are never carried between uses):
///
/// * `transform` — [`TransformScratch`] for the Winograd matrices;
/// * `patch_f` — gathered FP32 input patch / de-quantized `Z` block;
/// * `tile_f` — transformed FP32 tile / inverse-transformed output tile;
/// * `acc_f` — spare FP32 buffer (no executor grows it; the ledger sums it);
/// * `patch_i` — gathered INT8→i32 patch (integer-transform baselines);
/// * `tile_i` — integer-transformed tile;
/// * `v_block` / `z_block` — the depth-first schedule's per-worker slice of
///   the Winograd domain: the `V` lines and `Z` sums of the tile block in
///   flight, sized to sit in this core's L2 next to `U` (viewed as the
///   element's own lanes: u8, i16 or f32 `V`; i32 or f32 `Z`).
#[derive(Default)]
pub struct WorkerScratch {
    /// Winograd transform temporaries.
    pub transform: TransformScratch,
    /// FP32 patch-sized buffer.
    pub patch_f: AlignedBuf<f32>,
    /// FP32 tile-sized buffer.
    pub tile_f: AlignedBuf<f32>,
    /// FP32 accumulator buffer.
    pub acc_f: AlignedBuf<f32>,
    /// i32 patch-sized buffer.
    pub patch_i: AlignedBuf<i32>,
    /// i32 tile-sized buffer.
    pub tile_i: AlignedBuf<i32>,
    /// u8 tile-sized buffer (quantized transform output; 64-byte aligned
    /// so each 64-lane group can be stream-stored as one cache line).
    pub tile_u8: AlignedBuf<u8>,
    /// Double-buffered `U` packing slots for the pipelined GEMM driver of
    /// every element type (grown by `GemmTasks::run_range` on first use,
    /// then reused).
    pub gemm_pack: PanelScratch,
    /// `V` block `[T][nb][C_p]` of the tile block in flight, in bytes.
    pub v_block: AlignedBuf<u8>,
    /// `Z` block `[K_p/64][nb][T][64]` of the tile block in flight.
    pub z_block: AlignedBuf<i32>,
}

/// Record an arena growth in the trace. Buffers never shrink, so the
/// cumulative `scratch/high_water_bytes` counter *is* the arena's
/// high-water footprint across all workers; growth only happens on the
/// first execute of a new shape, so this never fires in steady state.
fn note_growth(old_len: usize, new_len: usize, elem_bytes: usize) {
    lowino_trace::counter(
        "scratch/high_water_bytes",
        ((new_len - old_len) * elem_bytes) as u64,
    );
}

/// The `scratch/grow` fault site: an armed fault panics in place of the
/// reallocation, modelling an allocation failure at the only point the
/// steady state can allocate. The panic unwinds into the pool's capture
/// (`StaticPool::run_phases_catching`) and surfaces to the caller as a
/// recoverable `ExecError::WorkerPanic`. One relaxed atomic load when
/// disarmed.
fn grow_fault_probe(new_len: usize, elem_bytes: usize) {
    if lowino_testkit::faults::SCRATCH_GROW.fire() {
        panic!(
            "injected fault: scratch/grow (realloc to {} bytes)",
            new_len * elem_bytes
        );
    }
}

/// Grow-on-demand view: returns `&mut buf[..len]`, reallocating (to the
/// next power of two, so repeated layers of mixed sizes settle quickly)
/// only when the buffer is too small. Contents are unspecified — every
/// user fully overwrites the slice it asks for.
pub fn ensure_f32(buf: &mut AlignedBuf<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        let new_len = len.next_power_of_two();
        grow_fault_probe(new_len, core::mem::size_of::<f32>());
        note_growth(buf.len(), new_len, core::mem::size_of::<f32>());
        *buf = AlignedBuf::zeroed(new_len);
    }
    &mut buf.as_mut_slice()[..len]
}

/// i32 twin of [`ensure_f32`].
pub fn ensure_i32(buf: &mut AlignedBuf<i32>, len: usize) -> &mut [i32] {
    if buf.len() < len {
        let new_len = len.next_power_of_two();
        grow_fault_probe(new_len, core::mem::size_of::<i32>());
        note_growth(buf.len(), new_len, core::mem::size_of::<i32>());
        *buf = AlignedBuf::zeroed(new_len);
    }
    &mut buf.as_mut_slice()[..len]
}

/// u8 twin of [`ensure_f32`].
pub fn ensure_u8(buf: &mut AlignedBuf<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        let new_len = len.next_power_of_two();
        grow_fault_probe(new_len, core::mem::size_of::<u8>());
        note_growth(buf.len(), new_len, core::mem::size_of::<u8>());
        *buf = AlignedBuf::zeroed(new_len);
    }
    &mut buf.as_mut_slice()[..len]
}

/// One arena slot, padded to a cache line so slot headers don't false-share.
#[repr(align(64))]
struct Slot(Mutex<WorkerScratch>);

/// One [`WorkerScratch`] per pool worker, addressed by the worker index the
/// pool passes to every phase body.
pub struct ScratchArena {
    slots: Box<[Slot]>,
}

impl ScratchArena {
    /// An arena with `workers` slots (must match the pool's thread count).
    ///
    /// `workers == 0` is clamped to one slot, mirroring
    /// `StaticPool::new`'s sequential-fallback clamp: a zero-thread
    /// misconfiguration degrades to single-slot operation instead of
    /// aborting the process.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            slots: (0..workers)
                .map(|_| Slot(Mutex::new(WorkerScratch::default())))
                .collect(),
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Lock worker `w`'s scratch. Uncontended on the executor path (each
    /// worker index is driven by exactly one thread per fork-join); poison
    /// is ignored because the buffers carry no invariants between uses.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn worker(&self, w: usize) -> MutexGuard<'_, WorkerScratch> {
        match self.slots[w].0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_once_then_reuses() {
        let arena = ScratchArena::new(2);
        {
            let mut ws = arena.worker(0);
            let s = ensure_f32(&mut ws.patch_f, 100);
            assert_eq!(s.len(), 100);
            s.fill(7.0);
        }
        let mut ws = arena.worker(0);
        let cap = ws.patch_f.len();
        assert!(cap >= 100);
        let ptr = ws.patch_f.as_ptr();
        // A smaller request must not shrink or move the buffer.
        let s = ensure_f32(&mut ws.patch_f, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(ws.patch_f.as_ptr(), ptr);
        assert_eq!(ws.patch_f.len(), cap);
        // A larger request grows to the next power of two.
        ensure_i32(&mut ws.patch_i, 33);
        assert_eq!(ws.patch_i.len(), 64);
    }

    #[test]
    fn slots_are_independent() {
        let arena = ScratchArena::new(3);
        assert_eq!(arena.workers(), 3);
        ensure_f32(&mut arena.worker(1).tile_f, 16).fill(1.0);
        assert_eq!(arena.worker(2).tile_f.len(), 0);
        assert_eq!(arena.worker(1).tile_f.len(), 16);
    }

    #[test]
    fn zero_workers_clamps_to_one_slot() {
        assert_eq!(ScratchArena::new(0).workers(), 1);
    }

    #[test]
    fn usable_through_shared_reference_across_threads() {
        let arena = ScratchArena::new(4);
        std::thread::scope(|scope| {
            let arena = &arena;
            for w in 0..4 {
                scope.spawn(move || {
                    let mut ws = arena.worker(w);
                    let s = ensure_f32(&mut ws.tile_f, 64);
                    s.fill(w as f32);
                });
            }
        });
        for w in 0..4 {
            assert!(arena.worker(w).tile_f.as_slice().iter().all(|&v| v == w as f32));
        }
    }
}
