//! Deterministic supervision tests: the full threaded server driven by
//! a **virtual clock**, with wedges and spawn-time deaths injected
//! through the testkit fault registry.
//!
//! Wall time only paces the supervisor's polling; every *decision* —
//! heartbeat staleness, restart backoff, event timestamps — reads the
//! virtual clock, so the tests advance time explicitly and assert exact
//! nanosecond arithmetic:
//!
//! * a wedged shard (no heartbeat, work pending) is **not** flagged at
//!   `wedge_timeout` and **is** flagged one nanosecond past it;
//! * the in-flight batch of a wedged shard is stolen and replayed
//!   **exactly once** — every caller still gets its own correct answer;
//! * the restart backoff schedule is exact and exponential
//!   (`base << restarts`), and respawns never fire early;
//! * after `max_restarts` the shard goes `Dead`: `/healthz` turns 503
//!   and accepted requests get clean 503s instead of hanging;
//! * brownout enters its last rung under queue pressure, publishes it in
//!   `/stats`, holds it across a shard respawn, and clears it when the
//!   pressure does.
//!
//! Dispatch is work-conserving — a request that finds a shard idle goes
//! at once — so a test that needs requests *queued* first holds every
//! shard busy inside a [`Gate`]d model.
//!
//! The fault sites are process-global statics, so tests that arm them
//! serialize on one mutex.

use std::io::{BufReader, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lowino_serve::http;
use lowino_serve::{
    BatchModel, BrownoutConfig, DuplexStream, ServeConfig, Server, ShardState, SupervisorEventKind,
    NO_DEADLINE,
};
use lowino_testkit::faults::{disarm_all, SHARD_SPAWN, SHARD_WEDGE};
use lowino_testkit::{Gate, VirtualClock};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> MutexGuard<'static, ()> {
    let g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    disarm_all();
    g
}

struct EchoModel {
    il: usize,
}

impl BatchModel for EchoModel {
    fn input_len(&self) -> usize {
        self.il
    }
    fn output_len(&self) -> usize {
        1
    }
    fn max_batch(&self) -> usize {
        8
    }
    fn infer(&mut self, inputs: &[f32], count: usize, outputs: &mut [f32]) -> Result<(), String> {
        for i in 0..count {
            outputs[i] = inputs[i * self.il..(i + 1) * self.il].iter().sum();
        }
        Ok(())
    }
}

/// [`EchoModel`] (`il` 2) whose every `infer` passes a [`Gate`] first.
struct GatedEcho {
    gate: Arc<Gate>,
}

impl BatchModel for GatedEcho {
    fn input_len(&self) -> usize {
        2
    }
    fn output_len(&self) -> usize {
        1
    }
    fn max_batch(&self) -> usize {
        8
    }
    fn infer(&mut self, inputs: &[f32], count: usize, outputs: &mut [f32]) -> Result<(), String> {
        self.gate.pass();
        EchoModel { il: 2 }.infer(inputs, count, outputs)
    }
}

fn cfg(max_batch: usize, wedge_timeout_ns: u64, max_restarts: u64) -> ServeConfig {
    ServeConfig {
        shards: 1,
        max_batch,
        // Frozen virtual time never reaches a coalescing deadline, so
        // while every shard is busy dispatch triggers purely on the size
        // bound.
        max_delay_ns: 60_000_000_000,
        default_deadline_ns: NO_DEADLINE,
        wedge_timeout_ns,
        max_restarts,
        restart_backoff_ns: 1_000_000, // 1 ms virtual: crisp arithmetic
        ..ServeConfig::default()
    }
}

/// Fire one `/infer` from its own thread (the caller is busy driving
/// the clock); returns a join handle yielding `(status, body)`.
fn spawn_infer(conn: DuplexStream, vals: Vec<f32>) -> std::thread::JoinHandle<(u16, Vec<u8>)> {
    std::thread::spawn(move || {
        let mut conn = BufReader::new(conn);
        let mut body = Vec::new();
        for v in &vals {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let head = format!("POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
        conn.get_mut().write_all(head.as_bytes()).unwrap();
        conn.get_mut().write_all(&body).unwrap();
        let r = http::read_response(&mut conn).unwrap();
        (r.status, r.body)
    })
}

fn get_status(server: &Server, path: &str) -> u16 {
    let mut conn = BufReader::new(server.connect());
    conn.get_mut()
        .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    http::read_response(&mut conn).unwrap().status
}

/// Wall-poll until `cond` (the wall clock only paces detection; the
/// asserted timestamps all come from the virtual clock).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Wall-settle: give the supervisor a generous number of ticks to do
/// something it must NOT do, then let the caller assert it didn't.
fn settle() {
    std::thread::sleep(Duration::from_millis(40));
}

fn events_of(server: &Server, kind: SupervisorEventKind) -> Vec<u64> {
    server
        .supervisor_events()
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.at_ns)
        .collect()
}

#[test]
fn wedge_is_detected_exactly_past_the_timeout_and_the_batch_replays_once() {
    let _g = fault_guard();
    const WEDGE_NS: u64 = 10_000_000; // 10 ms virtual
    let clock = Arc::new(VirtualClock::new());
    let server =
        Server::start_with_clock(cfg(1, WEDGE_NS, 5), |_| EchoModel { il: 2 }, clock.clone())
            .unwrap();

    let wedges = SHARD_WEDGE.hits(); // cumulative since process start
    SHARD_WEDGE.arm();
    let client = spawn_infer(server.connect(), vec![1.5, 2.0]);
    // The worker took the batch, parked itself and stopped heartbeating
    // (its last beat is at virtual t=0).
    wait_until("the wedge fault to fire", || SHARD_WEDGE.hits() > wedges);

    // At exactly wedge_timeout the shard is still considered merely
    // slow: staleness is strict.
    clock.advance_to(WEDGE_NS);
    settle();
    assert!(
        events_of(&server, SupervisorEventKind::WedgeDetected).is_empty(),
        "wedge flagged at (not past) the timeout"
    );

    // One nanosecond past: detected, stolen, replayed.
    clock.advance(1);
    wait_until("wedge detection", || {
        !events_of(&server, SupervisorEventKind::WedgeDetected).is_empty()
    });
    assert_eq!(
        events_of(&server, SupervisorEventKind::WedgeDetected),
        vec![WEDGE_NS + 1],
        "detection is stamped at the first instant staleness held"
    );

    // The respawn obeys the backoff: scheduled at detection + base.
    let respawn_at = WEDGE_NS + 1 + 1_000_000;
    clock.advance_to(respawn_at);
    wait_until("the respawn", || {
        !events_of(&server, SupervisorEventKind::Respawned).is_empty()
    });
    assert_eq!(events_of(&server, SupervisorEventKind::Respawned), vec![respawn_at]);

    // The stolen request is replayed on the fresh worker and the caller
    // gets its answer — exactly one, and the right one.
    let (status, body) = client.join().unwrap();
    assert_eq!(status, 200);
    assert_eq!(f32::from_le_bytes([body[0], body[1], body[2], body[3]]), 3.5);

    let snap = server.shutdown();
    assert_eq!(snap.completed, 1);
    // The per-shard counter tracks steals exactly; the global one also
    // counts dispatcher deferrals while the shard was down.
    assert_eq!(snap.per_shard[0].replayed, 1, "stolen once, replayed once");
    assert!(snap.replayed >= 1);
    assert_eq!(snap.per_shard[0].restarts, 1);
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable
    );
}

#[test]
fn concurrent_batch_survives_a_wedge_with_every_reply_correctly_paired() {
    let _g = fault_guard();
    const WEDGE_NS: u64 = 5_000_000;
    let clock = Arc::new(VirtualClock::new());
    let gate = Arc::new(Gate::new());
    let g = Arc::clone(&gate);
    let server = Server::start_with_clock(
        cfg(2, WEDGE_NS, 5),
        move |_| GatedEcho { gate: Arc::clone(&g) },
        clock.clone(),
    )
    .unwrap();

    // A holder request keeps the only shard busy inside the model (past
    // the wedge probe), so the two below queue behind it.
    let holder = spawn_infer(server.connect(), vec![0.5, 0.5]);
    wait_until("the holder inside the model", || gate.arrived() == 1);
    let wedges = SHARD_WEDGE.hits();
    SHARD_WEDGE.arm();
    // Two connections coalesce into one batch (size bound 2; virtual
    // time frozen, so the coalescing deadline can't fire first).
    let a = spawn_infer(server.connect(), vec![1.0, 2.0]);
    let b = spawn_infer(server.connect(), vec![10.0, 20.0]);
    wait_until("the coalesced batch", || server.stats().batches == 2);
    gate.allow(usize::MAX);
    assert_eq!(holder.join().unwrap().0, 200);
    wait_until("the wedged batch", || SHARD_WEDGE.hits() > wedges);

    clock.advance_to(WEDGE_NS + 1);
    wait_until("wedge detection", || {
        !events_of(&server, SupervisorEventKind::WedgeDetected).is_empty()
    });
    clock.advance(1_000_000);
    wait_until("the respawn", || {
        !events_of(&server, SupervisorEventKind::Respawned).is_empty()
    });

    // Both callers get exactly one answer each, paired to their own
    // input — replay preserved identity, duplicated nothing.
    let (sa, ba) = a.join().unwrap();
    let (sb, bb) = b.join().unwrap();
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(f32::from_le_bytes([ba[0], ba[1], ba[2], ba[3]]), 3.0);
    assert_eq!(f32::from_le_bytes([bb[0], bb[1], bb[2], bb[3]]), 30.0);

    let snap = server.shutdown();
    assert_eq!(snap.completed, 3);
    assert_eq!(
        snap.per_shard[0].replayed,
        2,
        "both members of the batch stolen once"
    );
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable
    );
}

#[test]
fn backoff_schedule_is_exact_exponential_and_exhaustion_means_dead() {
    let _g = fault_guard();
    const WEDGE_NS: u64 = 10_000_000;
    const BASE: u64 = 1_000_000;
    let clock = Arc::new(VirtualClock::new());
    let server =
        Server::start_with_clock(cfg(1, WEDGE_NS, 2), |_| EchoModel { il: 2 }, clock.clone())
            .unwrap();

    // Wedge the only shard to start the restart ladder.
    let wedges = SHARD_WEDGE.hits();
    SHARD_WEDGE.arm();
    let client = spawn_infer(server.connect(), vec![4.0, 5.0]);
    wait_until("the wedge fault to fire", || SHARD_WEDGE.hits() > wedges);
    clock.advance_to(WEDGE_NS + 1);
    wait_until("wedge detection", || {
        !events_of(&server, SupervisorEventKind::WedgeDetected).is_empty()
    });
    let d1 = events_of(&server, SupervisorEventKind::WedgeDetected)[0];

    // Respawn #1 is due at d1 + BASE (restarts = 0 → backoff = base).
    // Make it die at spawn, and check it does not fire a tick early.
    SHARD_SPAWN.arm();
    clock.advance_to(d1 + BASE - 1);
    settle();
    assert!(
        events_of(&server, SupervisorEventKind::Respawned).is_empty(),
        "respawn fired before its backoff elapsed"
    );
    clock.advance(1);
    wait_until("respawn #1", || {
        !events_of(&server, SupervisorEventKind::Respawned).is_empty()
    });
    assert_eq!(events_of(&server, SupervisorEventKind::Respawned), vec![d1 + BASE]);

    // The spawn fault killed it instantly → death detected (virtual
    // time is frozen at the respawn instant, so the detection stamp
    // equals it), restarts = 1 → backoff doubles.
    wait_until("death detection #1", || {
        !events_of(&server, SupervisorEventKind::DeathDetected).is_empty()
    });
    let d2 = events_of(&server, SupervisorEventKind::DeathDetected)[0];
    assert_eq!(d2, d1 + BASE, "frozen clock: death stamped at the respawn instant");

    SHARD_SPAWN.arm();
    clock.advance_to(d2 + 2 * BASE - 1);
    settle();
    assert_eq!(
        events_of(&server, SupervisorEventKind::Respawned).len(),
        1,
        "second respawn fired before its doubled backoff elapsed"
    );
    clock.advance(1);
    wait_until("respawn #2", || {
        events_of(&server, SupervisorEventKind::Respawned).len() == 2
    });
    assert_eq!(
        events_of(&server, SupervisorEventKind::Respawned),
        vec![d1 + BASE, d2 + 2 * BASE],
        "backoff schedule is base << restarts, exactly"
    );

    // That death exhausts max_restarts = 2: the shard is Dead for good,
    // the stranded request gets a clean 503, /healthz flips to 503 and
    // new work is refused with 503 instead of hanging.
    wait_until("the shard to be declared dead", || {
        !events_of(&server, SupervisorEventKind::GaveUp).is_empty()
    });
    assert_eq!(server.shard_states(), vec![ShardState::Dead]);
    let (status, _) = client.join().unwrap();
    assert_eq!(status, 503, "stranded request answered, not hung");
    assert_eq!(get_status(&server, "/healthz"), 503);
    let (status, _) = spawn_infer(server.connect(), vec![1.0, 1.0]).join().unwrap();
    assert_eq!(status, 503, "new work refused while all shards dead");

    let snap = server.shutdown();
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.unavailable, 2);
    assert_eq!(snap.per_shard[0].state, "dead");
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable
    );
}

#[test]
fn spawn_death_at_startup_is_respawned_not_fatal() {
    let _g = fault_guard();
    let clock = Arc::new(VirtualClock::new());
    // Two shards: shard 0 (first spawn) eats the fault and dies during
    // model construction; startup fails cleanly rather than hanging —
    // the supervisor never ran, so this is a hard config-time error.
    SHARD_SPAWN.arm();
    let res = Server::start_with_clock(
        ServeConfig { shards: 2, ..cfg(1, 10_000_000, 3) },
        |_| EchoModel { il: 2 },
        clock.clone(),
    );
    assert!(res.is_err(), "a shard dying during construction fails startup");
    disarm_all();
}

#[test]
fn brownout_holds_the_last_rung_across_a_respawn_and_clears_it() {
    let _g = fault_guard();
    const WEDGE_NS: u64 = 10_000_000;
    let clock = Arc::new(VirtualClock::new());
    let gate = Arc::new(Gate::new());
    let cfg = ServeConfig {
        shards: 2,
        queue_cap: 16,
        // One batch per mailbox, so a third size-bound batch waits in the
        // dispatcher's hand — and while it does, the queue only grows.
        shard_queue: 1,
        // One rung, so the first step down is the last rung. Five queued
        // requests (5/16) are pressure; only an empty queue is clear.
        brownout: BrownoutConfig {
            rungs: 1,
            enter_depth: 0.3,
            exit_depth: 0.0,
            clear_ticks: 1,
            ..BrownoutConfig::default()
        },
        ..cfg(2, WEDGE_NS, 5)
    };
    let g = Arc::clone(&gate);
    let server = Server::start_with_clock(
        cfg,
        move |_| GatedEcho { gate: Arc::clone(&g) },
        clock.clone(),
    )
    .unwrap();

    // Hold both shards busy in the model. The holders go one at a time,
    // so each finds a shard idle and lands on its own (gate calls 0, 1).
    let mut clients: Vec<_> = (0..2)
        .map(|k| {
            let holder = spawn_infer(server.connect(), vec![k as f32, 0.5]);
            wait_until("a holder inside the model", || gate.arrived() == k + 1);
            holder
        })
        .collect();

    // Three size-bound batches of two: one behind each holder, one in the
    // dispatcher's hand.
    for round in 0..3 {
        clients.extend((0..2).map(|i| spawn_infer(server.connect(), vec![i as f32, 1.0])));
        wait_until("a size-bound batch", || server.stats().batches == 3 + round);
    }

    // Queue pressure. With the dispatcher's hand full, five requests wait
    // in the queue: the last rung. From then on the queue drains by one
    // request (the halved max_batch) per mailbox place that frees up —
    // never to empty, so the rung holds.
    let wedges = SHARD_WEDGE.hits();
    SHARD_WEDGE.arm();
    clients.extend((0..5).map(|i| spawn_infer(server.connect(), vec![i as f32, 2.0])));
    wait_until("the last rung", || server.stats().brownout_rung == 1);

    // Release the first holder: its worker takes the batch behind it and
    // wedges on it; the batch in hand takes its mailbox place.
    gate.allow(1);
    wait_until("the wedged batch", || SHARD_WEDGE.hits() > wedges);
    wait_until("the batch in hand mailed", || {
        server.stats().per_shard.iter().all(|s| s.queue_depth == 1)
    });

    // Release the second holder at the wedge timeout: its worker takes
    // its batch with a heartbeat there (so one nanosecond later only the
    // wedged shard is stale) and holds the batch in the model (gate
    // call 2).
    clock.advance_to(WEDGE_NS);
    gate.allow(2);
    wait_until("the second batch inside the model", || gate.arrived() == 3);
    wait_until("the survivor's heartbeat", || {
        server.stats().per_shard.iter().any(|s| s.heartbeat_age_ns == 0)
    });

    // Respawn at the last rung. The stolen batches go back to the queue;
    // the respawned shard takes the request in hand, and the queue stays
    // pressured.
    clock.advance(1);
    wait_until("wedge detection", || {
        !events_of(&server, SupervisorEventKind::WedgeDetected).is_empty()
    });
    clock.advance(1_000_000);
    wait_until("the respawn", || {
        !events_of(&server, SupervisorEventKind::Respawned).is_empty()
    });
    assert_eq!(server.stats().brownout_rung, 1, "still at the last rung at the respawn");

    // Clear the pressure: open the gate. Every batch runs, the queue
    // drains into the shards as they fall idle, the empty queue is clear,
    // and the rung steps back up.
    gate.allow(usize::MAX);
    for c in clients {
        assert_eq!(c.join().unwrap().0, 200);
    }
    wait_until("the rung to clear", || server.stats().brownout_rung == 0);

    let snap = server.shutdown();
    assert_eq!(snap.completed, 13);
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable
    );
}
