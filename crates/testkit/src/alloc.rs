//! A counting global allocator for the zero-steady-state-allocation
//! audits (`crates/conv/tests/steady_state_alloc.rs`,
//! `crates/nn/tests/graph_alloc.rs`).
//!
//! A test binary installs [`CountingAlloc`] as its `#[global_allocator]`
//! and every test in it starts with `let audit = alloc::audit();`. The
//! guard is a process-wide lock, so the tests of that binary run one at a
//! time whatever `--test-threads` says, and [`AllocAudit::count`] — the
//! only way to arm the counter — needs the guard. An armed section
//! therefore sees the allocations of the code under test on *every*
//! thread (pool workers included) and of nothing else: a sibling test
//! cannot be running, because it would be holding the lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static AUDIT: Mutex<()> = Mutex::new(());

/// The system allocator plus a count of the allocations made, on any
/// thread, while an [`AllocAudit::count`] section is running.
pub struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`; the counter
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Exclusive hold on the test binary; see the module docs.
pub struct AllocAudit {
    _binary: MutexGuard<'static, ()>,
}

/// Wait for every other test of this binary to finish, then hold the
/// binary until the guard drops. A test that failed while holding it does
/// not poison the ones after it. Not reentrant: one guard per test.
pub fn audit() -> AllocAudit {
    AllocAudit {
        _binary: AUDIT.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl AllocAudit {
    /// Heap allocations made on any thread while `f` runs. Always 0 in a
    /// binary whose global allocator is not [`CountingAlloc`].
    pub fn count(&self, f: impl FnOnce()) -> u64 {
        /// Disarms on drop, so a panicking `f` cannot leave the counter on.
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                ARMED.store(false, Ordering::SeqCst);
            }
        }
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let disarm = Disarm;
        f();
        drop(disarm);
        ALLOCS.load(Ordering::SeqCst)
    }
}
