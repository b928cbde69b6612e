//! Chaos soak: a seeded request stream against a real compiled-graph
//! server while every serving-path `LOWINO_FAULT` site from the injection
//! registry is armed in turn — the serving-path translation of PR-7's
//! resilience story. (`wisdom/save` is not one: a server never writes
//! wisdom; `tests/resilience.rs` covers that site.)
//!
//! The guarantee under test is the server's headline contract: **every
//! accepted request gets exactly one finite, correct-shape response**,
//! no matter which layer fails underneath it.
//!
//! * `scratch/grow` — armed through a whole burst. Steady-state serving
//!   never reallocates (buffers settle at compile time), so the site
//!   must still be armed afterwards and every response clean: the probe
//!   sits on the only allocation the steady state could make.
//! * `pool/phase` — a worker panics mid-phase inside the engine's
//!   fork-join pool. The pool captures it, `ResilientConv` demotes the
//!   layer down its ladder, the batch retries and completes: clients
//!   see ordinary 200s while `/stats` reports the demotion.
//! * `shard/wedge` + `shard/spawn` — the supervision soak: shard workers
//!   are wedged mid-batch (and their respawns killed at spawn) while a
//!   concurrent request stream runs. The supervisor steals the in-flight
//!   work, replays it exactly once and respawns the worker — clients
//!   still see only finite 200s (or clean 503/504s), and the accounting
//!   identity closes exactly.
//!
//! Everything runs over in-memory duplex streams — no ports, no
//! wall-clock coupling beyond the supervisor's pacing — so the whole
//! battery is deterministic in its *outcomes*.
//!
//! The fault sites are process-global statics, so the tests serialize on
//! one mutex.

use std::io::{BufReader, Write};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lowino::Tensor4;
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec};
use lowino_serve::http::read_response;
use lowino_serve::{GraphModel, ServeConfig, Server};
use lowino_testkit::faults;
use lowino_testkit::Rng;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> MutexGuard<'static, ()> {
    let g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    faults::disarm_all();
    g
}

const IN_C: usize = 3;
const HW: usize = 8;
const CLASSES: usize = 4;
const BATCH: usize = 2;

fn build_model(shard: usize) -> GraphModel {
    let mut model = mini_vgg(IN_C, 8, CLASSES, 99 + shard as u64);
    let calib = Tensor4::from_fn(2, IN_C, HW, HW, |b, c, y, x| {
        ((b * 31 + c * 7 + y * 3 + x) as f32 * 0.37).sin()
    });
    let spec = GraphSpec { m: 2, batch: BATCH, threads: 2 };
    let graph = CompiledGraph::compile(&mut model, &calib, &spec).expect("chaos graph compiles");
    GraphModel::new(graph)
}

/// Fire `n` seeded inference requests down one keep-alive connection and
/// return how many came back 200-with-finite-payload. Panics on any
/// hang-adjacent outcome: wrong shape, non-finite float, non-200 status.
fn run_burst(server: &Server, seed: u64, n: usize) -> usize {
    let (il, ol) = server.dims();
    let mut rng = Rng::seed_from_u64(seed);
    let mut conn = BufReader::new(server.connect());
    let mut ok = 0;
    for i in 0..n {
        let mut input = vec![0.0f32; il];
        rng.fill_f32(&mut input, -1.0, 1.0);
        let body: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
        conn.get_mut()
            .write_all(
                format!("POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
                    .as_bytes(),
            )
            .unwrap();
        conn.get_mut().write_all(&body).unwrap();
        let resp = read_response(&mut conn).unwrap_or_else(|e| {
            panic!("request {i} of seed-{seed} burst got no response: {e:?}")
        });
        assert_eq!(resp.status, 200, "request {i}: {:?}", String::from_utf8_lossy(&resp.body));
        assert_eq!(resp.body.len(), ol * 4, "request {i}: wrong payload shape");
        for (j, chunk) in resp.body.chunks_exact(4).enumerate() {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert!(v.is_finite(), "request {i} logit {j} is {v}");
        }
        ok += 1;
    }
    ok
}

/// Fetch `/stats` over HTTP and return the raw JSON body.
fn fetch_stats(server: &Server) -> String {
    let mut conn = BufReader::new(server.connect());
    conn.get_mut()
        .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = read_response(&mut conn).expect("/stats answers");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).expect("/stats is UTF-8");
    lowino_testkit::validate_json(&body).expect("/stats is valid JSON");
    body
}

#[test]
fn chaos_battery_every_fault_site_in_turn() {
    let _g = fault_guard();
    let cfg = ServeConfig {
        shards: 1,
        max_batch: BATCH,
        max_delay_ns: 200_000,
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, build_model).expect("server starts");
    assert_eq!(server.dims(), (IN_C * HW * HW, CLASSES));

    // Phase 0: healthy baseline.
    let baseline = run_burst(&server, 0xA0, 6);
    assert_eq!(baseline, 6);
    assert_eq!(server.stats().demotions, 0, "baseline must not demote");

    // Phase 1: scratch/grow armed across a whole burst. Steady-state
    // serving performs no reallocation, so the site stays armed and
    // every response is clean — the probe guards the only allocation
    // the steady state could make.
    faults::arm_from_spec(faults::SCRATCH_GROW.name()).unwrap();
    assert_eq!(run_burst(&server, 0xA1, 8), 8);
    assert!(
        faults::SCRATCH_GROW.is_armed(),
        "steady-state serving reallocated scratch (hits={})",
        faults::SCRATCH_GROW.hits()
    );
    faults::SCRATCH_GROW.disarm();

    // Phase 2: pool/phase armed — a worker panics mid-phase on the next
    // conv. The ladder demotes and the stream keeps flowing: clients
    // still see only 200s.
    let pool_hits_before = faults::POOL_PHASE.hits();
    faults::arm_from_spec(faults::POOL_PHASE.name()).unwrap();
    assert_eq!(run_burst(&server, 0xA2, 8), 8);
    assert_eq!(
        faults::POOL_PHASE.hits(),
        pool_hits_before + 1,
        "armed pool fault never reached a phase probe"
    );
    // Shard stats publish after each batch; one more burst guarantees the
    // demotion is visible before we read /stats.
    assert_eq!(run_burst(&server, 0xA3, 4), 4);
    let stats = server.stats();
    assert!(stats.demotions >= 1, "pool panic did not demote: {stats:?}");
    let json = fetch_stats(&server);
    assert!(
        json.contains(&format!("\"demotions\":{}", stats.demotions)),
        "/stats does not show the demotion: {json}"
    );

    // Phase 3: a drained shutdown after the faults.
    let snap = server.shutdown();

    // The headline contract, end to end: every accepted request resolved,
    // nothing panicked a connection, nothing was dropped on the floor.
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable,
        "accounting hole: {snap:?}"
    );
    assert_eq!(snap.failed, 0, "a request failed under chaos: {snap:?}");
    assert_eq!((snap.timed_out, snap.unavailable), (0, 0), "{snap:?}");
    assert_eq!(snap.conn_panics, 0);
    assert_eq!(snap.accepted, 6 + 8 + 8 + 4);
    assert!(snap.demotions >= 1);

    faults::disarm_all();
}

/// The supervision soak: wedge shard workers mid-batch (and kill one
/// respawn at spawn) under a concurrent request stream, with a mid-batch
/// `pool/phase` panic thrown in. Every request must resolve — finite
/// 200, or a clean 503/504 — the supervisor must restart the shard
/// within its configured budget, and the books must close exactly.
#[test]
fn shard_kill_and_wedge_mid_stream_soak() {
    let _g = fault_guard();
    let cfg = ServeConfig {
        shards: 2,
        max_batch: BATCH,
        max_delay_ns: 200_000,
        queue_cap: 64,
        wedge_timeout_ns: 25_000_000, // 25 ms wall: ≫ heartbeat, ≪ test budget
        restart_backoff_ns: 1_000_000,
        max_restarts: 20,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, build_model).expect("server starts");

    // Run `clients` concurrent connections, each firing `per_client`
    // sequential requests; every response must be a finite 200 or a
    // clean 503/504. Returns (oks, sheds).
    let soak = |seed: u64, clients: usize, per_client: usize| -> (usize, usize) {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let conn = server.connect();
                let (il, ol) = server.dims();
                std::thread::spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed + c as u64);
                    let mut conn = BufReader::new(conn);
                    let (mut oks, mut sheds) = (0usize, 0usize);
                    for i in 0..per_client {
                        let mut input = vec![0.0f32; il];
                        rng.fill_f32(&mut input, -1.0, 1.0);
                        let body: Vec<u8> =
                            input.iter().flat_map(|v| v.to_le_bytes()).collect();
                        conn.get_mut()
                            .write_all(
                                format!(
                                    "POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                                    body.len()
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                        conn.get_mut().write_all(&body).unwrap();
                        let resp = read_response(&mut conn).unwrap_or_else(|e| {
                            panic!("client {c} request {i} got no response: {e:?}")
                        });
                        match resp.status {
                            200 => {
                                assert_eq!(resp.body.len(), ol * 4, "client {c} req {i}");
                                for chunk in resp.body.chunks_exact(4) {
                                    let v = f32::from_le_bytes(chunk.try_into().unwrap());
                                    assert!(v.is_finite(), "client {c} req {i}: {v}");
                                }
                                oks += 1;
                            }
                            503 | 504 => sheds += 1,
                            s => panic!(
                                "client {c} req {i}: dirty status {s}: {:?}",
                                String::from_utf8_lossy(&resp.body)
                            ),
                        }
                    }
                    (oks, sheds)
                })
            })
            .collect();
        let mut totals = (0, 0);
        for h in handles {
            let (o, s) = h.join().expect("soak client panicked");
            totals.0 += o;
            totals.1 += s;
        }
        totals
    };

    // Round 1: wedge a worker mid-batch. The stolen batch replays on a
    // survivor (or the respawn), so nothing is lost.
    let wedges = faults::SHARD_WEDGE.hits();
    faults::SHARD_WEDGE.arm();
    let (oks, _) = soak(0xB1, 6, 5);
    assert!(oks >= 1);
    assert!(faults::SHARD_WEDGE.hits() > wedges, "the wedge fault never fired");

    // The supervisor must notice and respawn within its budget.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().per_shard.iter().all(|s| s.restarts == 0) {
        assert!(Instant::now() < deadline, "no restart after a wedge: {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(2));
    }

    // Round 2: the next respawn dies at spawn (shard/spawn) — arm a
    // wedge to bring a worker down first, and let the backoff ladder
    // absorb the spawn death on the way back up.
    faults::SHARD_SPAWN.arm();
    faults::SHARD_WEDGE.arm();
    let (oks, _) = soak(0xB2, 6, 5);
    assert!(oks >= 1, "round 2: {:?} / events {:?}", server.stats(), server.supervisor_events());

    // Round 3: a mid-batch engine panic (pool/phase) on top — the
    // resilience ladder demotes and the stream keeps flowing.
    faults::arm_from_spec(faults::POOL_PHASE.name()).unwrap();
    let (oks, sheds) = soak(0xB3, 6, 5);
    assert_eq!(oks + sheds, 30, "round 3 lost a request");
    assert!(oks >= 1);

    // Let any in-flight respawn settle so shutdown sees live shards.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().per_shard.iter().any(|s| !s.alive) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    faults::disarm_all();
    let snap = server.shutdown();
    // The headline invariant under shard murder: exactly-once resolution
    // for every accepted request, books closed, no connection panics.
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable,
        "accounting hole: {snap:?}"
    );
    assert_eq!(snap.failed, 0, "a request died dirty under the soak: {snap:?}");
    assert_eq!(snap.conn_panics, 0);
    let restarts: u64 = snap.per_shard.iter().map(|s| s.restarts).sum();
    assert!(restarts >= 1, "the supervisor never restarted anything: {snap:?}");
}
