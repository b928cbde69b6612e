//! Overload brownout: a pure hysteretic controller that trades batching
//! efficiency for latency headroom when the server is drowning.
//!
//! The supervisor ticks [`BrownoutPolicy`] with what it can observe —
//! queue depth relative to the admission bound and the recent p99
//! latency relative to the effective request deadline — and the policy
//! answers with a **rung**:
//!
//! * rung 0 — healthy: the configured `max_batch` / `max_delay_ns`;
//! * rung *r* — both limits right-shifted by *r* (halved per rung):
//!   smaller batches and shorter coalescing waits drain the queue at the
//!   cost of per-request efficiency.
//!
//! No rung touches numerics: the conv ladders' health checks read counts
//! the executors tally while storing, so switching them off would save
//! nothing.
//!
//! Stepping **down** (toward degradation) is immediate — one pressured
//! tick per rung. Stepping **up** needs `clear_ticks` *consecutive*
//! clear ticks, and the clear threshold (`exit_depth`) sits well below
//! the entry threshold (`enter_depth`), so the controller cannot
//! oscillate on a load hovering at the boundary.

/// Thresholds and shape of the brownout ladder.
#[derive(Debug, Clone, Copy)]
pub struct BrownoutConfig {
    /// Number of degradation rungs below healthy (rung 0).
    pub rungs: u32,
    /// Step down when `depth / queue_cap` reaches this ratio.
    pub enter_depth: f64,
    /// A tick only counts as *clear* when the depth ratio is at or
    /// below this (must be < `enter_depth` for hysteresis).
    pub exit_depth: f64,
    /// Step down when observed p99 exceeds this fraction of the
    /// effective deadline (latency is eating the deadline headroom).
    pub headroom: f64,
    /// Consecutive clear ticks required per step back up.
    pub clear_ticks: u32,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            rungs: 3,
            enter_depth: 0.75,
            exit_depth: 0.25,
            headroom: 0.75,
            clear_ticks: 5,
        }
    }
}

/// One tick's observations.
#[derive(Debug, Clone, Copy)]
pub struct BrownoutInput {
    /// Current batcher queue depth.
    pub depth: usize,
    /// The admission bound the depth is measured against.
    pub queue_cap: usize,
    /// Recent p99 end-to-end latency, when enough samples exist.
    pub p99_ns: Option<u64>,
    /// The effective request deadline p99 is compared against
    /// (`None` when requests carry no deadline — then only queue
    /// depth drives the controller).
    pub deadline_ns: Option<u64>,
}

/// What a tick decided (the caller emits a trace event on Down/Up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutStep {
    /// Rung unchanged.
    Hold,
    /// Stepped one rung down (more degraded).
    Down,
    /// Stepped one rung up (less degraded).
    Up,
}

/// The controller state: current rung plus the clear-streak counter.
#[derive(Debug)]
pub struct BrownoutPolicy {
    cfg: BrownoutConfig,
    base_max_batch: usize,
    base_max_delay_ns: u64,
    rung: u32,
    clear_streak: u32,
}

impl BrownoutPolicy {
    /// A controller at rung 0 around the configured batching limits.
    pub fn new(cfg: BrownoutConfig, base_max_batch: usize, base_max_delay_ns: u64) -> Self {
        Self { cfg, base_max_batch, base_max_delay_ns, rung: 0, clear_streak: 0 }
    }

    /// Current rung (0 = healthy).
    pub fn rung(&self) -> u32 {
        self.rung
    }

    /// The batching limits for the current rung: base values
    /// right-shifted once per rung (`max_batch` floored at 1).
    pub fn limits(&self) -> (usize, u64) {
        let shift = self.rung.min(63);
        (
            (self.base_max_batch >> shift).max(1),
            self.base_max_delay_ns >> shift,
        )
    }

    fn pressured(&self, input: &BrownoutInput) -> bool {
        let ratio = input.depth as f64 / input.queue_cap.max(1) as f64;
        if ratio >= self.cfg.enter_depth {
            return true;
        }
        if let (Some(p99), Some(deadline)) = (input.p99_ns, input.deadline_ns) {
            if p99 as f64 > self.cfg.headroom * deadline as f64 {
                return true;
            }
        }
        false
    }

    fn clear(&self, input: &BrownoutInput) -> bool {
        let ratio = input.depth as f64 / input.queue_cap.max(1) as f64;
        if ratio > self.cfg.exit_depth {
            return false;
        }
        match (input.p99_ns, input.deadline_ns) {
            (Some(p99), Some(deadline)) => (p99 as f64) <= self.cfg.headroom * deadline as f64,
            _ => true,
        }
    }

    /// Advance the controller one observation. Down transitions are
    /// immediate; Up transitions require `clear_ticks` consecutive
    /// clear observations (the streak resets on any non-clear tick).
    pub fn tick(&mut self, input: BrownoutInput) -> BrownoutStep {
        if self.pressured(&input) {
            self.clear_streak = 0;
            if self.rung < self.cfg.rungs {
                self.rung += 1;
                return BrownoutStep::Down;
            }
            return BrownoutStep::Hold;
        }
        if self.clear(&input) {
            self.clear_streak += 1;
            if self.clear_streak >= self.cfg.clear_ticks && self.rung > 0 {
                self.clear_streak = 0;
                self.rung -= 1;
                return BrownoutStep::Up;
            }
        } else {
            // The dead band between exit and enter: hold the rung and
            // restart the clear streak — hovering load must fully clear
            // before the controller steps back up.
            self.clear_streak = 0;
        }
        BrownoutStep::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BrownoutConfig {
        BrownoutConfig {
            rungs: 3,
            enter_depth: 0.75,
            exit_depth: 0.25,
            headroom: 0.75,
            clear_ticks: 3,
        }
    }

    fn depth(depth: usize) -> BrownoutInput {
        BrownoutInput { depth, queue_cap: 100, p99_ns: None, deadline_ns: None }
    }

    #[test]
    fn depth_pressure_steps_down_one_rung_per_tick() {
        let mut p = BrownoutPolicy::new(cfg(), 8, 2_000_000);
        assert_eq!(p.limits(), (8, 2_000_000));
        assert_eq!(p.tick(depth(80)), BrownoutStep::Down);
        assert_eq!(p.limits(), (4, 1_000_000));
        assert_eq!(p.tick(depth(80)), BrownoutStep::Down);
        assert_eq!(p.tick(depth(80)), BrownoutStep::Down);
        assert_eq!(p.rung(), 3, "at the last rung");
        assert_eq!(p.tick(depth(80)), BrownoutStep::Hold, "no rung below the last");
        assert_eq!(p.limits(), (1, 250_000));
    }

    #[test]
    fn latency_pressure_alone_steps_down() {
        let mut p = BrownoutPolicy::new(cfg(), 8, 2_000_000);
        let slow = BrownoutInput {
            depth: 0,
            queue_cap: 100,
            p99_ns: Some(9_000_000),
            deadline_ns: Some(10_000_000),
        };
        assert_eq!(p.tick(slow), BrownoutStep::Down, "p99 at 90% of deadline");
        let fine = BrownoutInput { p99_ns: Some(1_000_000), ..slow };
        assert_eq!(p.tick(fine), BrownoutStep::Hold, "clear tick 1 of 3");
    }

    #[test]
    fn recovery_is_hysteretic() {
        let mut p = BrownoutPolicy::new(cfg(), 8, 2_000_000);
        p.tick(depth(80));
        assert_eq!(p.rung(), 1);
        // The dead band (25 < 50 < 75) holds the rung and resets streaks.
        assert_eq!(p.tick(depth(10)), BrownoutStep::Hold);
        assert_eq!(p.tick(depth(10)), BrownoutStep::Hold);
        assert_eq!(p.tick(depth(50)), BrownoutStep::Hold, "dead band resets the streak");
        assert_eq!(p.tick(depth(10)), BrownoutStep::Hold);
        assert_eq!(p.tick(depth(10)), BrownoutStep::Hold);
        assert_eq!(p.tick(depth(10)), BrownoutStep::Up, "3 consecutive clears");
        assert_eq!(p.rung(), 0);
        assert_eq!(p.limits(), (8, 2_000_000), "base limits restored");
    }

    #[test]
    fn max_batch_never_reaches_zero() {
        let mut p = BrownoutPolicy::new(
            BrownoutConfig { rungs: 6, ..cfg() },
            2,
            1_000,
        );
        for _ in 0..6 {
            p.tick(depth(100));
        }
        assert_eq!(p.limits().0, 1);
    }
}
