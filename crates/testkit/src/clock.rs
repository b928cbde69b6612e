//! Virtual time for deterministic concurrency tests.
//!
//! The serving stack's batching state machine is driven entirely by
//! timestamps ("dispatch when the oldest request is `max_delay` old"), so
//! its tests must control time, not sample it. [`VirtualClock`] is a
//! shared monotonic nanosecond counter that only advances when a test says
//! so; [`PoissonArrivals`] turns the testkit PRNG into a reproducible
//! Poisson-process arrival stream (exponential inter-arrival gaps), the
//! standard open-loop load model for sustained-traffic benchmarks.
//!
//! [`Gate`] is the third piece: it holds worker threads at a known point
//! (a model's inference) so a test can queue work behind busy workers
//! without racing them.
//!
//! None of these types knows about the serving crate: `lowino-serve`
//! defines the `Clock` trait and implements it for [`VirtualClock`],
//! keeping this crate dependency-free.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::rng::Rng;

/// A shared, manually-advanced monotonic clock (nanoseconds since an
/// arbitrary epoch). Clones observe the same time.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `start_ns`.
    pub fn starting_at(start_ns: u64) -> Self {
        let c = Self::new();
        c.ns.store(start_ns, Ordering::Release);
        c
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Acquire)
    }

    /// Advance time by `delta_ns`, returning the new now.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.ns.fetch_add(delta_ns, Ordering::AcqRel) + delta_ns
    }

    /// Jump time forward to `t_ns`. Monotonic: a target in the past is
    /// ignored (time never rewinds). Returns the resulting now.
    pub fn advance_to(&self, t_ns: u64) -> u64 {
        self.ns.fetch_max(t_ns, Ordering::AcqRel).max(t_ns)
    }
}

/// A numbered turnstile. Calls to [`Gate::pass`] are numbered 0, 1, … in
/// arrival order, and call `k` blocks until [`Gate::allow`] has raised
/// the limit above `k`: a test releases held threads one at a time, in
/// the order they arrived, or all at once with `usize::MAX`.
#[derive(Debug, Default)]
pub struct Gate {
    arrived: AtomicUsize,
    allowed: Mutex<usize>,
    raised: Condvar,
}

impl Gate {
    /// A closed gate: no call passes until [`allow`](Self::allow).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the next number and block until it is allowed through.
    pub fn pass(&self) {
        let k = self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut allowed = self.allowed.lock().unwrap_or_else(|e| e.into_inner());
        while k >= *allowed {
            allowed = self.raised.wait(allowed).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Let every call numbered below `n` through (the limit never drops).
    pub fn allow(&self, n: usize) {
        let mut allowed = self.allowed.lock().unwrap_or_else(|e| e.into_inner());
        *allowed = (*allowed).max(n);
        self.raised.notify_all();
    }

    /// Calls that have arrived so far, passed or still held.
    pub fn arrived(&self) -> usize {
        self.arrived.load(Ordering::Acquire)
    }
}

/// A reproducible Poisson-process arrival stream: an infinite iterator of
/// absolute arrival times (ns) whose gaps are i.i.d. exponential with the
/// configured mean.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: u64,
}

impl PoissonArrivals {
    /// Arrivals starting at t = 0 with the given mean inter-arrival gap
    /// (so the arrival rate is `1e9 / mean_gap_ns` requests per second).
    /// A zero mean gap is clamped to 1 ns — a zero-gap process would pin
    /// every arrival to the epoch.
    pub fn new(seed: u64, mean_gap_ns: u64) -> Self {
        Self {
            rng: Rng::seed_from_u64(seed),
            mean_gap_ns: (mean_gap_ns.max(1)) as f64,
            next_ns: 0,
        }
    }

    /// The next arrival time in nanoseconds.
    pub fn next_arrival_ns(&mut self) -> u64 {
        // Exponential gap, rounded up so consecutive arrivals are strictly
        // ordered (a batcher keyed on timestamps must see distinct times).
        let gap = self.rng.exp_f64(self.mean_gap_ns).ceil() as u64;
        self.next_ns = self.next_ns.saturating_add(gap.max(1));
        self.next_ns
    }

    /// The first `n` arrival times.
    pub fn take_times(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_arrival_ns()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.advance_to(50), 50);
        // Never rewinds.
        assert_eq!(c.advance_to(20), 50);
        assert_eq!(c.now_ns(), 50);
    }

    #[test]
    fn clones_share_time() {
        let a = VirtualClock::starting_at(7);
        let b = a.clone();
        a.advance(3);
        assert_eq!(b.now_ns(), 10);
        b.advance(5);
        assert_eq!(a.now_ns(), 15);
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let mut a = PoissonArrivals::new(42, 1_000);
        let mut b = PoissonArrivals::new(42, 1_000);
        let ta = a.take_times(500);
        let tb = b.take_times(500);
        assert_eq!(ta, tb, "same seed, same stream");
        for w in ta.windows(2) {
            assert!(w[0] < w[1], "arrivals must be strictly ordered: {w:?}");
        }
        assert_ne!(ta, PoissonArrivals::new(43, 1_000).take_times(500));
    }

    #[test]
    fn mean_gap_is_roughly_honoured() {
        let mut p = PoissonArrivals::new(9, 10_000);
        let n = 20_000;
        let last = p.take_times(n)[n - 1];
        let mean = last as f64 / n as f64;
        assert!(
            (8_000.0..12_000.0).contains(&mean),
            "empirical mean gap {mean} vs configured 10000"
        );
    }

    #[test]
    fn gate_releases_calls_in_arrival_order() {
        let gate = Arc::new(Gate::new());
        let passed = Arc::new(AtomicUsize::new(0));
        let spawn = || {
            let (gate, passed) = (Arc::clone(&gate), Arc::clone(&passed));
            std::thread::spawn(move || {
                gate.pass();
                passed.fetch_add(1, Ordering::AcqRel);
            })
        };
        let first = spawn();
        while gate.arrived() < 1 {
            std::thread::yield_now();
        }
        let second = spawn();
        while gate.arrived() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(passed.load(Ordering::Acquire), 0, "a closed gate holds all");
        gate.allow(1);
        first.join().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(passed.load(Ordering::Acquire), 1, "limit 1 holds call 1");
        gate.allow(usize::MAX);
        second.join().unwrap();
        gate.allow(0);
        gate.pass(); // the limit never drops: an opened gate stays open
        assert_eq!(gate.arrived(), 3);
    }

    #[test]
    fn zero_gap_is_clamped() {
        let mut p = PoissonArrivals::new(1, 0);
        let t = p.take_times(10);
        for w in t.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
