//! Sample bookkeeping shared by every workload: one `Window` per timed
//! stretch, percentiles by nearest rank over its successful ops.

use std::fmt::Display;
use std::time::{Duration, Instant};

use lowino_testkit::percentile_ns;

/// What one op reports: the wall time of its public calls and whether its
/// output passed the check. A failed op is a failure, not a sample.
pub struct OpResult {
    pub ns: u64,
    pub ok: bool,
}

/// Stretches `Window::steady_percentile_ms` cuts a window into, and the
/// fewest samples a stretch may hold.
const SLICES: usize = 24;
const MIN_SLICE: usize = 10;

/// One measured stretch of ops.
#[derive(Default)]
pub struct Window {
    /// Latencies of the ops that succeeded, in the order they were issued
    /// (open loop: scheduled).
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time from the first op's start to the last op's end.
    pub wall: Duration,
}

impl Window {
    /// Closed loop: one caller issuing the next op as soon as the previous
    /// one returned, for `seconds`.
    pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> OpResult) -> Self {
        let mut w = Window::default();
        let start = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        while start.elapsed() < limit {
            let r = op(w.attempted);
            w.record(r);
        }
        w.wall = start.elapsed();
        w
    }

    pub fn record(&mut self, r: OpResult) {
        self.attempted += 1;
        if r.ok {
            self.lat_ns.push(r.ns);
        } else {
            self.failed += 1;
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Nearest-rank percentile of the successful ops, in milliseconds. A
    /// window with no successful op reads +inf: it met no latency.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        percentile_ms(&self.lat_ns, q)
    }

    /// The window cut into up to `SLICES` consecutive stretches of at least
    /// `MIN_SLICE` samples each.
    fn stretches(&self) -> impl Iterator<Item = &[u64]> {
        let slices = (self.lat_ns.len() / MIN_SLICE).clamp(1, SLICES);
        self.lat_ns
            .chunks_exact((self.lat_ns.len() / slices).max(1))
    }

    /// The percentile the end-to-end latencies report: each stretch of the
    /// window gives its own nearest-rank percentile, and the lower quartile
    /// of those is the figure. On a shared host, noise only ever adds
    /// latency, in bursts; the whole-window percentile follows how much of
    /// the run the bursts covered, the lower quartile of stretches follows
    /// the program. A window with no successful op reads +inf.
    pub fn steady_percentile_ms(&self, q: f64) -> f64 {
        let mut each: Vec<f64> = self.stretches().map(|s| percentile_ms(s, q)).collect();
        each.sort_by(f64::total_cmp);
        each.get(each.len() / 4).copied().unwrap_or(f64::INFINITY)
    }

    /// Closed-loop throughput by the same rule: each stretch's successful
    /// ops over the time they took (a mean, so a stretch's slow ops count),
    /// and the upper quartile of the stretches. No successful op reads 0.
    pub fn steady_per_second(&self, units_per_ok_op: f64) -> f64 {
        let mut each: Vec<f64> = self
            .stretches()
            .map(|s| s.len() as f64 * units_per_ok_op / (s.iter().sum::<u64>() as f64 / 1e9))
            .collect();
        each.sort_by(f64::total_cmp);
        each.reverse();
        each.get(each.len() / 4).copied().unwrap_or(0.0)
    }

    /// Units per second of the whole window's wall time.
    pub fn per_second(&self, units_per_ok_op: f64) -> f64 {
        self.ok() as f64 * units_per_ok_op / self.wall.as_secs_f64()
    }
}

pub fn percentile_ms(lat_ns: &[u64], q: f64) -> f64 {
    if lat_ns.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    percentile_ns(&sorted, q) as f64 / 1e6
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Wall times of `reps` calls of `f`, after one untimed call; the first
/// error `f` returns ends the measurement.
fn timed_calls<T, E: Display>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, String> {
    f().map_err(|e| e.to_string())?;
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f().map_err(|e| e.to_string())?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Best-of-`reps` wall time of `f`, after one untimed call.
pub fn best_of<T, E: Display>(
    reps: usize,
    f: impl FnMut() -> Result<T, E>,
) -> Result<Duration, String> {
    let secs = timed_calls(reps, f)?;
    Ok(Duration::from_secs_f64(
        secs.into_iter().fold(f64::INFINITY, f64::min),
    ))
}

/// Median-of-`reps` wall time of `f`, after one untimed call.
pub fn median_of<T, E: Display>(
    reps: usize,
    f: impl FnMut() -> Result<T, E>,
) -> Result<Duration, String> {
    Ok(Duration::from_secs_f64(median(&mut timed_calls(reps, f)?)))
}
