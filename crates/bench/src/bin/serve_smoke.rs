//! CI smoke for the inference server over **real TCP**: bind a loopback
//! port, drive batched inference from concurrent clients, poke the error
//! paths with a malformed request and a wrong-shape body, read `/stats`
//! and `/healthz`, then shut down and assert the accounting closed.
//!
//! The hermetic test batteries cover the same logic over in-memory
//! duplex streams; this binary is the one place the acceptor thread,
//! real sockets and port binding are exercised end to end. It also
//! drives the supervision story over real sockets: a worker is wedged
//! mid-batch (`shard/wedge` fault) and must be detected, stolen from
//! and respawned while the client still gets its 200; an
//! already-expired request (`X-Lowino-Deadline-Us: 0`) must be shed
//! with a 504 before costing shard work. With `LOWINO_TRACE=<path>` the
//! run emits the `serve/request`, `serve/batch`, `serve/queue_depth`,
//! `serve/shard_restart`, `serve/deadline_shed` and `serve/brownout`
//! events that ci/check.sh greps and validates with `trace_check`.
//!
//! The bind address comes from `LOWINO_SERVE_ADDR` (default
//! `127.0.0.1:0` — an OS-assigned free port, so parallel CI runs never
//! collide).

use std::io::{BufReader, Write};
use std::net::TcpStream;

use lowino::Tensor4;
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec};
use lowino_serve::http::read_response;
use lowino_serve::{GraphModel, ServeConfig, Server};
use lowino_testkit::faults;
use lowino_testkit::Rng;

const IN_C: usize = 3;
const HW: usize = 8;
const CLASSES: usize = 3;
const BATCH: usize = 2;

fn build_model(shard: usize) -> GraphModel {
    let mut model = mini_vgg(IN_C, 8, CLASSES, 41 + shard as u64);
    let calib = Tensor4::from_fn(2, IN_C, HW, HW, |b, c, y, x| {
        ((b * 29 + c * 5 + y * 3 + x) as f32 * 0.41).sin()
    });
    let spec = GraphSpec { m: 2, batch: BATCH, threads: 1 };
    let graph = CompiledGraph::compile(&mut model, &calib, &spec).expect("smoke graph compiles");
    GraphModel::new(graph)
}

fn infer_request(il: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut input = vec![0.0f32; il];
    rng.fill_f32(&mut input, -1.0, 1.0);
    let body: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut wire =
        format!("POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
    wire.extend_from_slice(&body);
    wire
}

fn main() {
    lowino_trace::init_from_env();
    let addr = std::env::var("LOWINO_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let cfg = ServeConfig {
        shards: 1,
        max_batch: BATCH,
        max_delay_ns: 500_000,
        queue_cap: 32,
        wedge_timeout_ns: 25_000_000, // 25 ms: the wedge phase stays quick
        restart_backoff_ns: 1_000_000,
        ..ServeConfig::default()
    };
    let mut server = Server::start(cfg, build_model).expect("server starts");
    let bound = server.bind(&addr).expect("bind loopback");
    println!("serve_smoke: listening on {bound}");
    let (il, ol) = server.dims();

    // Batched inference: concurrent clients so the coalescer sees real
    // multi-connection traffic, each validating shape and finiteness.
    let per_client = 6usize;
    let clients = 3usize;
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let stream = TcpStream::connect(bound).expect("connect");
                let mut conn = BufReader::new(stream);
                for i in 0..per_client {
                    let wire = infer_request(il, (c * 100 + i) as u64);
                    conn.get_mut().write_all(&wire).expect("send");
                    let resp = read_response(&mut conn).expect("response");
                    assert_eq!(resp.status, 200, "client {c} request {i}");
                    assert_eq!(resp.body.len(), ol * 4, "payload shape");
                    for chunk in resp.body.chunks_exact(4) {
                        let v = f32::from_le_bytes(chunk.try_into().unwrap());
                        assert!(v.is_finite(), "non-finite logit");
                    }
                }
            });
        }
    });

    // Malformed request line: the server must answer 4xx and close.
    {
        let stream = TcpStream::connect(bound).expect("connect");
        let mut conn = BufReader::new(stream);
        conn.get_mut().write_all(b"NONSENSE\r\n\r\n").expect("send garbage");
        let resp = read_response(&mut conn).expect("error response");
        assert!(
            (400..=505).contains(&resp.status),
            "garbage got status {}",
            resp.status
        );
    }

    // Wrong-shape body: app-level 400, connection stays usable.
    {
        let stream = TcpStream::connect(bound).expect("connect");
        let mut conn = BufReader::new(stream);
        conn.get_mut()
            .write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
            .expect("send short body");
        let resp = read_response(&mut conn).expect("response");
        assert_eq!(resp.status, 400, "wrong-shape body");
        let wire = infer_request(il, 7777);
        conn.get_mut().write_all(&wire).expect("send valid after 400");
        let resp = read_response(&mut conn).expect("response after 400");
        assert_eq!(resp.status, 200, "keep-alive after app-level 400");
    }

    // Observability endpoints.
    {
        let stream = TcpStream::connect(bound).expect("connect");
        let mut conn = BufReader::new(stream);
        conn.get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
            .expect("send pipelined gets");
        let health = read_response(&mut conn).expect("healthz");
        assert_eq!(health.status, 200);
        let stats = read_response(&mut conn).expect("stats");
        assert_eq!(stats.status, 200);
        let body = String::from_utf8(stats.body).expect("stats utf-8");
        lowino_testkit::validate_json(&body).expect("stats is valid JSON");
        assert!(body.contains("\"per_shard\""), "stats shape: {body}");
    }

    // Self-healing over real TCP: wedge the only worker mid-batch. The
    // supervisor must abandon it, steal the in-flight batch, respawn the
    // shard and replay — the client's connection just sees a slow 200.
    {
        faults::SHARD_WEDGE.arm();
        let stream = TcpStream::connect(bound).expect("connect");
        let mut conn = BufReader::new(stream);
        let wire = infer_request(il, 8888);
        conn.get_mut().write_all(&wire).expect("send into the wedge");
        let resp = read_response(&mut conn).expect("replayed response");
        assert_eq!(resp.status, 200, "wedged request not replayed");
        assert_eq!(resp.body.len(), ol * 4, "replayed payload shape");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.stats().per_shard[0].restarts == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no shard restart after the wedge: {:?}",
                server.stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        faults::disarm_all();
    }

    // Per-request deadline: already expired on arrival → 504 at
    // admission, before any queue or shard work; the connection stays
    // usable and a fresh request still completes.
    {
        let stream = TcpStream::connect(bound).expect("connect");
        let mut conn = BufReader::new(stream);
        let mut rng = Rng::seed_from_u64(9999);
        let mut input = vec![0.0f32; il];
        rng.fill_f32(&mut input, -1.0, 1.0);
        let body: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
        let head = format!(
            "POST /infer HTTP/1.1\r\nX-Lowino-Deadline-Us: 0\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.get_mut().write_all(head.as_bytes()).expect("send expired request");
        conn.get_mut().write_all(&body).expect("send expired body");
        let resp = read_response(&mut conn).expect("504 response");
        assert_eq!(resp.status, 504, "expired-on-arrival must be shed with 504");
        let wire = infer_request(il, 10_000);
        conn.get_mut().write_all(&wire).expect("send valid after 504");
        let resp = read_response(&mut conn).expect("response after 504");
        assert_eq!(resp.status, 200, "keep-alive after deadline shed");
    }

    let snap = server.shutdown();
    let expect = (clients * per_client + 1 + 2) as u64; // + wedge + post-504
    assert_eq!(snap.completed, expect, "completed: {snap:?}");
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.timed_out + snap.unavailable,
        "accounting: {snap:?}"
    );
    assert_eq!(snap.failed, 0, "failures: {snap:?}");
    assert_eq!(snap.conn_panics, 0, "panics: {snap:?}");
    assert_eq!(snap.deadline_rejects, 1, "admission shed not counted: {snap:?}");
    assert!(snap.http_errors >= 2, "error paths unexercised: {snap:?}");
    assert!(snap.batches >= 1, "no batches dispatched: {snap:?}");
    assert!(
        snap.per_shard[0].restarts >= 1,
        "supervisor never restarted the wedged shard: {snap:?}"
    );
    println!(
        "serve_smoke: ok ({} completed, {} batches, mean occupancy {:.2}, {} http errors, \
         {} restarts, {} deadline sheds)",
        snap.completed,
        snap.batches,
        snap.mean_occupancy,
        snap.http_errors,
        snap.per_shard[0].restarts,
        snap.deadline_rejects
    );
    lowino_trace::flush_to_env();
}
