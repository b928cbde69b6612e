//! Sustained-load bench for the batched inference server: seeded Poisson
//! arrivals against a live `lowino-serve` instance, reporting throughput
//! and latency percentiles (p50/p99/p999) per shard count.
//!
//! The load generator is **open-loop**: every client thread draws its
//! arrival schedule up front from [`lowino_testkit::PoissonArrivals`]
//! (seeded, so the offered load is identical run to run) and measures
//! each request from its *scheduled* arrival instant, not from when the
//! client got around to sending it. A closed-loop generator would pause
//! the schedule whenever the server stalls, hiding exactly the queueing
//! delay a latency bench exists to measure (coordinated omission).
//!
//! Requests ride over in-memory duplex connections — the same code path
//! as TCP minus the kernel — so the numbers isolate the server stack:
//! HTTP parse, admission, coalescing, shard dispatch, graph execute.
//! 503s (admission rejections) and 504s (SLO deadline sheds) are
//! counted separately and excluded from the latency population.
//!
//! The **kill-loop** cells rerun the same offered load while a chaos
//! thread wedges a shard worker over and over (`shard/wedge` fault):
//! the supervisor must keep detecting, stealing, respawning and
//! replaying, and the weighted dispatcher, per-request deadlines and
//! brownout together must keep the p99 of the *served* traffic within
//! sight of the no-fault baseline (target: < 2×) — requests a rebuild
//! incident would push past the SLO are shed crisply as 504s instead of
//! dragging the tail. The ratio is reported, not CI-asserted —
//! wall-clock tails on shared runners are too noisy for a hard gate.
//!
//! Run with `cargo bench --bench serve`; `LOWINO_BENCH_JSON=<path>`
//! accumulates the JSON-line log (earlier numbers: EXPERIMENTS.md,
//! "Pre-ledger snapshots") and `LOWINO_BENCH_SMOKE=1` selects a
//! seconds-long CI configuration.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lowino::Tensor4;
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec};
use lowino_serve::http::read_response;
use lowino_serve::{GraphModel, ServeConfig, Server, NO_DEADLINE};
use lowino_testkit::{faults, LoadStats, PoissonArrivals, Rng};

struct Config {
    smoke: bool,
}

impl Config {
    fn from_env() -> Self {
        Self {
            smoke: std::env::var("LOWINO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0"),
        }
    }
}

const IN_C: usize = 3;
const HW: usize = 8;
const BATCH: usize = 4;

fn build_model(shard: usize) -> GraphModel {
    let mut model = mini_vgg(IN_C, 8, 3, 31 + shard as u64);
    let calib = Tensor4::from_fn(2, IN_C, HW, HW, |b, c, y, x| {
        ((b * 31 + c * 7 + y * 3 + x) as f32 * 0.37).sin()
    });
    let spec = GraphSpec { m: 2, batch: BATCH, threads: 1 };
    let graph = CompiledGraph::compile(&mut model, &calib, &spec).expect("bench graph compiles");
    GraphModel::new(graph)
}

/// One client: pre-drawn Poisson schedule, open-loop send, latency
/// measured from the scheduled arrival. Returns `(latencies, rejected,
/// shed)` — 503 admission rejections and 504 deadline sheds are counted,
/// not measured: a shed is the server *refusing* to serve a request
/// past its SLO, and folding its (bounded) turnaround into the latency
/// population would reward shedding with a better tail than serving.
///
/// When `slo_ns` is a real deadline the client *propagates* it: each
/// request carries `X-Lowino-Deadline-Us` with the budget remaining
/// from its scheduled arrival, the way an SLO-aware caller stamps the
/// deadline where the work originated. The budget must not restart at
/// the server door: a request this connection sent late (because the
/// previous reply was slow) is already part-way through its SLO, and
/// giving it a fresh window would let one slow incident chain latency
/// through every later request on the connection — exactly the tail
/// the deadline machinery exists to cut off. A late request with no
/// budget left costs one instant 504 and the connection is caught up.
fn run_client(
    server: &Server,
    t0: Instant,
    seed: u64,
    n: usize,
    mean_gap_ns: u64,
    slo_ns: u64,
) -> (Vec<u64>, u64, u64) {
    let (il, _) = server.dims();
    let mut arrivals = PoissonArrivals::new(seed, mean_gap_ns);
    let schedule = arrivals.take_times(n);
    let mut rng = Rng::seed_from_u64(seed ^ 0x9E37);
    let mut input = vec![0.0f32; il];
    rng.fill_f32(&mut input, -1.0, 1.0);
    let body: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();

    let mut conn = BufReader::new(server.connect());
    let mut lats = Vec::with_capacity(n);
    let (mut rejected, mut shed) = (0u64, 0u64);
    for &at_ns in &schedule {
        let scheduled = t0 + Duration::from_nanos(at_ns);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut head = String::from("POST /infer HTTP/1.1\r\n");
        if slo_ns != NO_DEADLINE {
            let absolute = scheduled + Duration::from_nanos(slo_ns);
            let left_us = absolute
                .saturating_duration_since(Instant::now())
                .as_micros() as u64;
            head.push_str(&format!("X-Lowino-Deadline-Us: {left_us}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        conn.get_mut().write_all(head.as_bytes()).expect("send head");
        conn.get_mut().write_all(&body).expect("send body");
        let resp = read_response(&mut conn).expect("response");
        // Latency from the *scheduled* arrival: running behind schedule
        // is server-induced queueing and must show up in the tail.
        let lat = Instant::now().duration_since(scheduled).as_nanos() as u64;
        match resp.status {
            200 => lats.push(lat),
            503 => rejected += 1,
            504 => shed += 1,
            s => panic!("unexpected status {s}"),
        }
    }
    (lats, rejected, shed)
}

/// One bench cell: start a server, warm it, drive the open-loop Poisson
/// grid, and (when `kill_loop`) wedge shard workers continuously for the
/// whole timed window. `slo_ns` becomes the server's default per-request
/// deadline: under a kill, requests that would blow the SLO are shed as
/// 504s before costing shard work, which is the mechanism that keeps the
/// *served* tail bounded while a peer rebuilds. Returns the latency
/// summary for ratio reporting.
fn bench_cell(
    id: String,
    shards: usize,
    clients: usize,
    n_per_client: usize,
    mean_gap_ns: u64,
    slo_ns: u64,
    kill_loop: bool,
) -> LoadStats {
    let cfg = ServeConfig {
        shards,
        threads_per_shard: 1,
        max_batch: BATCH,
        max_delay_ns: 1_000_000,
        queue_cap: 64,
        // One batch of mailbox backlog per shard: requests linger in the
        // batcher (where deadline sheds are prompt) instead of rotting
        // in a busy worker's mailbox where only dequeue can shed them.
        shard_queue: 1,
        default_deadline_ns: slo_ns,
        // Kill-loop cells lean on fast detection + respawn; the values
        // are harmless for the no-fault baseline (nothing ever wedges).
        wedge_timeout_ns: 10_000_000,
        restart_backoff_ns: 1_000_000,
        max_restarts: 10_000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, build_model).expect("server starts");

    // Warm every shard outside the timed window (first execute after the
    // dims handshake still touches cold caches). No SLO: warm-up cares
    // that the work happens, not when.
    let (lats, _, _) = run_client(&server, Instant::now(), 7, shards * BATCH, 1, NO_DEADLINE);
    assert!(!lats.is_empty(), "warm-up failed");

    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    // The kill-loop runs for the *nominal* load window, not until the
    // clients drain: a replayed batch can be re-wedged the moment a
    // respawned worker picks it up, so a killer paced by client
    // completion would chase the tail requests forever (livelock). A
    // wall-bounded killer stops, the last parked worker is detected and
    // stolen from, and the tail completes un-wedged.
    let kill_until = t0 + Duration::from_nanos(n_per_client as u64 * mean_gap_ns);
    let (mut all_lats, mut rejected, mut shed) = (Vec::new(), 0u64, 0u64);
    std::thread::scope(|scope| {
        let killer = kill_loop.then(|| {
            let (server, done) = (&server, &done);
            scope.spawn(move || {
                // Sustained *single-shard* kill-loop: one worker is
                // wedged, stolen from and respawned over and over. The
                // fault site is global, so the gate for re-arming is
                // the restart counter — a hit alone is too early (the
                // victim stays nominally alive until wedge detection,
                // and an eager re-arm lets the surviving shard elect
                // the wedge too, taking the whole fleet down instead of
                // one member at a time).
                let total = |s: &Server| -> u64 {
                    s.stats().per_shard.iter().map(|p| p.restarts).sum()
                };
                let mut restarts_at = total(server);
                let mut ready_since: Option<Instant> = None;
                faults::SHARD_WEDGE.arm();
                while !done.load(Ordering::Relaxed) && Instant::now() < kill_until {
                    std::thread::sleep(Duration::from_millis(2));
                    let now = total(server);
                    if now <= restarts_at {
                        continue;
                    }
                    let all_ready =
                        server.stats().per_shard.iter().all(|s| s.alive && !s.warming);
                    if !all_ready {
                        ready_since = None;
                        continue;
                    }
                    // Short cooldown once the fleet is whole again so the
                    // clients' serial connections can drain the backlog a
                    // kill leaves behind — a kill-*loop*, not a permanent
                    // half-capacity outage.
                    let since = *ready_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= Duration::from_millis(50) {
                        restarts_at = now;
                        ready_since = None;
                        faults::SHARD_WEDGE.arm();
                    }
                }
                faults::disarm_all();
            })
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    run_client(server, t0, 0xBEEF + c as u64, n_per_client, mean_gap_ns, slo_ns)
                })
            })
            .collect();
        for h in handles {
            let (lats, rej, sh) = h.join().expect("client thread");
            all_lats.extend(lats);
            rejected += rej;
            shed += sh;
        }
        done.store(true, Ordering::Relaxed);
        if let Some(k) = killer {
            k.join().expect("killer thread");
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    faults::disarm_all();
    // Let in-flight respawns land so shutdown sees healthy shards.
    let settle = Instant::now() + Duration::from_secs(10);
    while server.stats().per_shard.iter().any(|s| !s.alive) && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = server.shutdown();
    assert_eq!(snap.conn_panics, 0, "bench panicked a connection");
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable,
        "bench dropped requests: {snap:?}"
    );
    if kill_loop {
        let restarts: u64 = snap.per_shard.iter().map(|s| s.restarts).sum();
        assert!(restarts >= 1, "kill-loop never restarted a shard: {snap:?}");
        println!(
            "{id}: {restarts} restarts, {} replayed, {shed} SLO sheds, brownout rung {}",
            snap.replayed, snap.brownout_rung
        );
    }

    let stats = LoadStats::from_latencies(id, &mut all_lats, rejected, wall_ns);
    stats.report();
    lowino_trace::instant("serve/bench_mean_occupancy", snap.mean_occupancy as u64);
    stats
}

/// Baseline + kill-loop at one shard count, reporting the p99 ratio the
/// acceptance criterion watches (< 2x). Reported, not asserted: shared
/// CI runners make wall-clock tails too noisy for a hard gate. Both
/// cells run under the same `slo_ns` request deadline so the comparison
/// is fair: the baseline serves essentially everything inside the SLO,
/// while the kill cell leans on deadline shedding to keep the served
/// tail bounded through each detect/steal/rebuild incident.
fn bench_pair(shards: usize, clients: usize, n_per_client: usize, mean_gap_ns: u64, slo_ns: u64) {
    let base = bench_cell(
        format!("serve/poisson/s{shards}"),
        shards,
        clients,
        n_per_client,
        mean_gap_ns,
        slo_ns,
        false,
    );
    let faulted = bench_cell(
        format!("serve/killloop/s{shards}"),
        shards,
        clients,
        n_per_client,
        mean_gap_ns,
        slo_ns,
        true,
    );
    let ratio = faulted.p99_ns as f64 / base.p99_ns.max(1) as f64;
    println!("serve/killloop/s{shards}: p99 {ratio:.2}x no-fault baseline (target < 2x)");
    lowino_trace::instant("serve/bench_killloop_p99_ratio_milli", (ratio * 1_000.0) as u64);
}

fn main() {
    lowino_trace::init_from_env();
    let cfg = Config::from_env();
    if cfg.smoke {
        // Seconds-long CI cell: two shards, light load, same code path
        // (two shards so the kill-loop has a survivor to route around;
        // the window is long relative to wedge detection so the tail is
        // not all one incident; the 8 ms SLO clears the no-fault p999,
        // so the baseline serves everything while the kill cell sheds
        // the requests a detect/rebuild incident would push past it).
        bench_pair(2, 6, 20, 18_000_000, 8_000_000);
        lowino_trace::flush_to_env();
        return;
    }
    // The acceptance grid: sustained Poisson load at >=2 shard counts,
    // then the kill-loop pair at the multi-shard point (at a gap that
    // leaves a lone survivor headroom while its peer rebuilds).
    bench_cell("serve/poisson/s1".into(), 1, 3, 250, 6_000_000, NO_DEADLINE, false);
    bench_pair(2, 3, 250, 10_000_000, 12_000_000);
    lowino_trace::flush_to_env();
}
