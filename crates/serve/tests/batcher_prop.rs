//! Deterministic property tests for the batching state machine.
//!
//! The batcher core is pure — every transition takes an explicit
//! `now_ns` — so these tests drive it under a **virtual clock** with
//! seeded Poisson arrivals and check, over thousands of sampled
//! configurations, the invariants the server's guarantees rest on:
//!
//! * every accepted request leaves in **exactly one** batch (no loss, no
//!   duplication), in FIFO order — or, once requests carry deadlines, in
//!   exactly one batch *or* exactly one shed, never both;
//! * no batch exceeds the size bound;
//! * dispatch is work-conserving: a request waits only while the consumer
//!   is busy, and a free consumer takes everything queued up to the size
//!   bound — yet under saturation batches still fill;
//! * a request is **never dispatched at or past its deadline**, and is
//!   shed **iff** it expired while queued;
//! * the queue never exceeds its admission bound, and an offer is
//!   rejected **iff** the queue is at that bound.
//!
//! Failures shrink via the testkit harness and replay with
//! `LOWINO_PROP_SEED`.

use lowino_serve::batcher::{BatchConfig, BatcherCore, Pending, NO_DEADLINE};
use lowino_serve::Clock;
use lowino_testkit::{prop_assert, property, PoissonArrivals, VirtualClock};

/// One dispatched batch: when, what, and what it left behind.
struct Dispatched {
    at_ns: u64,
    /// When the consumer finished its previous batch (0 before the first).
    free_at_ns: u64,
    batch: Vec<Pending<usize>>,
    /// Queue depth right after the take.
    left: usize,
}

struct SimOutcome {
    /// `(id, enqueued_ns)` of every accepted offer, in admission order.
    accepted: Vec<(u64, u64)>,
    /// Arrival indices whose offers were rejected.
    rejected: Vec<usize>,
    dispatched: Vec<Dispatched>,
    /// `(shed_at_ns, request)` for every deadline-shed request.
    shed: Vec<(u64, Pending<usize>)>,
}

/// Simulate the batcher under Poisson arrivals with a single consumer
/// that takes `service_ns` per batch (0 = always-free consumer). Every
/// request carries deadline `enqueue + deadline_rel_ns`
/// ([`NO_DEADLINE`] disables deadlines). The virtual clock is the only
/// time source; a batch is taken at `max(first queued arrival, consumer
/// free)`, telling the batcher the consumer is idle — exactly the
/// threaded dispatcher's contract for one shard, minus the threads.
fn run_sim(
    seed: u64,
    cfg: BatchConfig,
    n: usize,
    mean_gap_ns: u64,
    service_ns: u64,
    deadline_rel_ns: u64,
) -> Result<SimOutcome, String> {
    let clock = VirtualClock::new();
    let mut arrivals = PoissonArrivals::new(seed, mean_gap_ns);
    let mut b = BatcherCore::new(cfg);
    let mut out = SimOutcome {
        accepted: Vec::new(),
        rejected: Vec::new(),
        dispatched: Vec::new(),
        shed: Vec::new(),
    };
    let mut busy_until = 0u64;

    // Take every batch whose dispatch instant lands before `horizon`
    // (u64::MAX = drain everything). The clock stands at the newest
    // arrival, which is the oldest queued one whenever the consumer is
    // free: so `max(now, busy_until)` is `max(first queued arrival,
    // consumer free)`.
    fn drain(
        b: &mut BatcherCore<usize>,
        clock: &VirtualClock,
        busy_until: &mut u64,
        service_ns: u64,
        horizon: u64,
        out: &mut SimOutcome,
    ) -> Result<(), String> {
        while b.depth() > 0 {
            let at = clock.now_ns().max(*busy_until);
            if at > horizon {
                return Ok(());
            }
            clock.advance_to(at);
            if !b.ready(at, true) {
                return Err(format!("queued batcher not ready for an idle consumer at t={at}"));
            }
            let taken = b.take_batch(at, true);
            if taken.batch.is_empty() && taken.expired.is_empty() {
                return Err(format!("ready batcher returned nothing at t={at}"));
            }
            for p in taken.expired {
                out.shed.push((at, p));
            }
            if !taken.batch.is_empty() {
                let free_at_ns = *busy_until;
                *busy_until = at + service_ns;
                out.dispatched.push(Dispatched {
                    at_ns: at,
                    free_at_ns,
                    batch: taken.batch,
                    left: b.depth(),
                });
            }
        }
        Ok(())
    }

    for i in 0..n {
        let t = arrivals.next_arrival_ns();
        drain(&mut b, &clock, &mut busy_until, service_ns, t, &mut out)?;
        clock.advance_to(t);
        let deadline = if deadline_rel_ns == NO_DEADLINE {
            NO_DEADLINE
        } else {
            t.saturating_add(deadline_rel_ns)
        };
        let depth_before = b.depth();
        match b.offer(i, t, deadline) {
            Ok(id) => out.accepted.push((id, t)),
            Err(p) => {
                if depth_before != cfg.queue_cap {
                    return Err(format!(
                        "rejected arrival {p} at depth {depth_before} (cap {})",
                        cfg.queue_cap
                    ));
                }
                out.rejected.push(p);
            }
        }
        if b.depth() > cfg.queue_cap {
            return Err(format!("depth {} exceeds cap {}", b.depth(), cfg.queue_cap));
        }
    }
    drain(&mut b, &clock, &mut busy_until, service_ns, u64::MAX, &mut out)?;
    if b.depth() != 0 {
        return Err(format!("{} requests stranded after drain", b.depth()));
    }
    Ok(out)
}

/// The invariants every simulation must uphold, whatever the consumer's
/// speed: each accepted request dispatched exactly once **or** shed
/// exactly once, FIFO among dispatched, size bound, full accounting.
fn check_core_invariants(cfg: &BatchConfig, n: usize, out: &SimOutcome) -> Result<(), String> {
    let mut seen: Vec<u64> = Vec::new();
    let mut last_id: Option<u64> = None;
    let mut last_at = 0u64;
    for d in &out.dispatched {
        if d.batch.len() > cfg.max_batch {
            return Err(format!(
                "batch of {} exceeds max_batch {}",
                d.batch.len(),
                cfg.max_batch
            ));
        }
        if d.at_ns < last_at {
            return Err(format!("dispatch times went backwards: {} < {last_at}", d.at_ns));
        }
        last_at = d.at_ns;
        for p in &d.batch {
            if let Some(prev) = last_id {
                if p.id <= prev {
                    return Err(format!("FIFO violated: id {} after {prev}", p.id));
                }
            }
            last_id = Some(p.id);
            if d.at_ns < p.enqueued_ns {
                return Err(format!(
                    "id {} dispatched at {} before its enqueue {}",
                    p.id, d.at_ns, p.enqueued_ns
                ));
            }
            seen.push(p.id);
        }
    }
    let mut resolved: Vec<u64> = seen
        .iter()
        .copied()
        .chain(out.shed.iter().map(|(_, p)| p.id))
        .collect();
    resolved.sort_unstable();
    let mut accepted_ids: Vec<u64> = out.accepted.iter().map(|&(id, _)| id).collect();
    accepted_ids.sort_unstable();
    if resolved != accepted_ids {
        return Err(format!(
            "dispatched+shed ids != accepted ids ({} + {} vs {})",
            seen.len(),
            out.shed.len(),
            out.accepted.len()
        ));
    }
    if out.accepted.len() + out.rejected.len() != n {
        return Err(format!(
            "accounting hole: {} accepted + {} rejected != {n}",
            out.accepted.len(),
            out.rejected.len()
        ));
    }
    Ok(())
}

/// Work conservation: a request waits only while the consumer is busy —
/// it goes out at its arrival, or the instant the consumer frees up after
/// being busy since before it arrived — and a free consumer takes
/// everything queued up to the size bound.
fn check_work_conserving(cfg: &BatchConfig, out: &SimOutcome) -> Result<(), String> {
    for d in &out.dispatched {
        for p in &d.batch {
            let waited_for_busy = p.enqueued_ns < d.free_at_ns && d.at_ns == d.free_at_ns;
            if d.at_ns != p.enqueued_ns && !waited_for_busy {
                return Err(format!(
                    "id {} enqueued at {} waited until {} though the consumer was free at {}",
                    p.id, p.enqueued_ns, d.at_ns, d.free_at_ns
                ));
            }
        }
        if d.left > 0 && d.batch.len() < cfg.max_batch {
            return Err(format!(
                "batch of {} (max {}) left {} queued for a free consumer",
                d.batch.len(),
                cfg.max_batch,
                d.left
            ));
        }
    }
    Ok(())
}

property! {
    /// Free consumer (service = 0), no request deadlines: on top of the
    /// core invariants, no request waits at all (the consumer is never
    /// busy), and nothing is ever shed.
    #[cases(48)]
    fn free_consumer_never_misses_a_deadline(
        seed in 0u64..1_000_000,
        max_batch in 1usize..9,
        delay_us in 1u64..200,
        queue_cap in 1usize..33,
        n in 1usize..200,
        mean_gap_us in 1u64..100,
    ) {
        let cfg = BatchConfig {
            max_batch,
            max_delay_ns: delay_us * 1_000,
            queue_cap,
            ..BatchConfig::default()
        };
        let out = run_sim(seed, cfg, n, mean_gap_us * 1_000, 0, NO_DEADLINE)?;
        check_core_invariants(&cfg, n, &out)?;
        check_work_conserving(&cfg, &out)?;
        prop_assert!(out.shed.is_empty(), "shed without deadlines");
        for d in &out.dispatched {
            for p in &d.batch {
                prop_assert!(
                    d.at_ns == p.enqueued_ns,
                    "id {} waited {}ns for a free consumer",
                    p.id,
                    d.at_ns - p.enqueued_ns
                );
            }
        }
        // A free consumer never leaves capacity idle: nothing is rejected.
        prop_assert!(
            out.rejected.is_empty() || queue_cap < max_batch,
            "free consumer rejected {} offers with cap {queue_cap} >= batch {max_batch}",
            out.rejected.len()
        );
    }

    /// Slow consumer: backpressure kicks in. The core invariants still
    /// hold — exactly-once, FIFO, size bound — and rejections happen
    /// only at the admission bound (checked inside the sim); completions
    /// stay within one service time of dispatch by construction.
    #[cases(32)]
    fn slow_consumer_backpressures_without_losing_requests(
        seed in 0u64..1_000_000,
        max_batch in 1usize..9,
        delay_us in 1u64..100,
        queue_cap in 1usize..17,
        n in 1usize..200,
        mean_gap_us in 1u64..30,
        service_us in 1u64..300,
    ) {
        let cfg = BatchConfig {
            max_batch,
            max_delay_ns: delay_us * 1_000,
            queue_cap,
            ..BatchConfig::default()
        };
        let out = run_sim(seed, cfg, n, mean_gap_us * 1_000, service_us * 1_000, NO_DEADLINE)?;
        check_core_invariants(&cfg, n, &out)?;
        check_work_conserving(&cfg, &out)?;
        // Sanity on the load model itself: with service >> gap and a
        // deep request stream, the bounded queue must actually have
        // exercised the rejection path at least once.
        if n >= 150 && service_us >= 100 && mean_gap_us <= 5 && queue_cap <= 8 {
            prop_assert!(
                !out.rejected.is_empty(),
                "overload never tripped admission control (n={n}, cap={queue_cap})"
            );
        }
    }

    /// Request deadlines, consumer of every speed: a request is never
    /// dispatched at or past its deadline, a request is shed only at or
    /// past its deadline, and under an overwhelmed consumer the shed
    /// path actually fires.
    #[cases(48)]
    fn requests_are_shed_iff_expired_and_never_dispatched_late(
        seed in 0u64..1_000_000,
        max_batch in 1usize..9,
        delay_us in 1u64..100,
        queue_cap in 2usize..17,
        n in 1usize..200,
        mean_gap_us in 1u64..30,
        service_us in 0u64..300,
        deadline_us in 5u64..500,
    ) {
        let cfg = BatchConfig {
            max_batch,
            max_delay_ns: delay_us * 1_000,
            queue_cap,
            // Keep the margin below the deadline so coalescing can
            // still happen at all under the tightest sampled deadlines.
            expiry_margin_ns: 1_000,
        };
        let out = run_sim(
            seed,
            cfg,
            n,
            mean_gap_us * 1_000,
            service_us * 1_000,
            deadline_us * 1_000,
        )?;
        check_core_invariants(&cfg, n, &out)?;
        check_work_conserving(&cfg, &out)?;
        for d in &out.dispatched {
            for p in &d.batch {
                prop_assert!(
                    d.at_ns < p.deadline_ns,
                    "id {} dispatched at {} at/past its deadline {}",
                    p.id,
                    d.at_ns,
                    p.deadline_ns
                );
            }
        }
        for (at, p) in &out.shed {
            prop_assert!(
                *at >= p.deadline_ns,
                "id {} shed at {at} before its deadline {}",
                p.id,
                p.deadline_ns
            );
        }
        // Load-model sanity: a consumer far slower than the deadline
        // budget with a steady stream must shed something.
        if n >= 150 && service_us >= 200 && mean_gap_us <= 5 && deadline_us <= 100 {
            prop_assert!(
                !out.shed.is_empty(),
                "overwhelmed consumer never shed (n={n}, deadline={deadline_us}us)"
            );
        }
    }
}

property! {
    /// Saturation: service takes at least `2 × max_batch` mean arrival
    /// gaps and the queue holds two batches, so once it fills, a take
    /// always leaves a full batch behind. Work conservation must not cost
    /// batching under load: at least 90 % of batches are full (the first,
    /// taken by an idle consumer, and the drain's last are the expected
    /// partial ones).
    #[cases(32)]
    fn saturated_consumer_still_fills_batches(
        seed in 0u64..1_000_000,
        max_batch in 1usize..9,
        slack in 0usize..17,
        n in 600usize..1000,
        mean_gap_us in 1u64..30,
        load in 2u64..5,
    ) {
        let cfg = BatchConfig {
            max_batch,
            max_delay_ns: 1_000_000,
            queue_cap: 2 * max_batch + slack,
            ..BatchConfig::default()
        };
        let service_ns = load * max_batch as u64 * mean_gap_us * 1_000;
        let out = run_sim(seed, cfg, n, mean_gap_us * 1_000, service_ns, NO_DEADLINE)?;
        check_core_invariants(&cfg, n, &out)?;
        check_work_conserving(&cfg, &out)?;
        let full = out.dispatched.iter().filter(|d| d.batch.len() == max_batch).count();
        prop_assert!(
            full * 10 >= out.dispatched.len() * 9,
            "only {full} of {} batches full under {load}x load (max_batch {max_batch})",
            out.dispatched.len()
        );
    }
}

/// The virtual clock driving the sims satisfies the server's `Clock`
/// trait, so the same time source can drive the threaded server.
#[test]
fn virtual_clock_is_a_server_clock() {
    let v = VirtualClock::new();
    let c: &dyn Clock = &v;
    v.advance(123);
    assert_eq!(c.now_ns(), 123);
}
