//! The request-path workload: `serve_poisson`. A one-shard `Server` over
//! `GraphModel(mini_vgg width 8, 8×8)`, loaded **open loop**: each of two
//! client threads draws a seeded Poisson schedule, sends `/infer` over its
//! own in-memory connection when a request is due, and times the reply
//! from the request's *scheduled* send time, so a stall shows up as
//! queueing on every request behind it. One op is one request.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lowino::Tensor4;
use lowino_nn::{mini_vgg, CompiledGraph, GraphSpec};
use lowino_serve::http::read_response;
use lowino_serve::{BatchModel, DuplexStream, GraphModel, ServeConfig, Server, StatsSnapshot};
use lowino_testkit::PoissonArrivals;

use crate::gen;
use crate::model::{CALIBRATION_SEED, CLASSES, IN_C, VGG_WEIGHTS_SEED};
use crate::spans;
use crate::stats::{median, Window};

pub const WIDTH: usize = 8;
pub const HW: usize = 8;
pub const M: usize = 2;
pub const MAX_BATCH: usize = 2;
pub const CONNECTIONS: usize = 2;
/// Offered load per connection, requests per second.
pub const RATE_PER_CONNECTION: f64 = 200.0;
/// Client-side latency limit from the scheduled send time.
pub const SLO: Duration = Duration::from_millis(20);
/// Distinct request bodies per run.
const POOL: usize = 256;
/// A 200 body must match a direct `GraphModel::infer` of the same input
/// to this relative L2 error.
const BODY_TOL: f64 = 1e-5;

/// The benchmark's own side: the deployed model (fixed weights and
/// calibration batch, as on the model workloads), the seeded pool of
/// request bodies with the outputs a direct `GraphModel::infer` gives, and
/// the error of those outputs against FP32 `Model::forward`.
pub struct Oracle {
    calib: Tensor4,
    /// Request line and headers, the same for every body.
    head: String,
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<f32>>,
    pub out_err_rel: f64,
    /// Direct-convolution MACs of one image through the model.
    pub macs_per_image: u64,
}

fn compile(calib: &Tensor4) -> GraphModel {
    let mut model = mini_vgg(IN_C, WIDTH, CLASSES, VGG_WEIGHTS_SEED);
    let spec = GraphSpec {
        m: M,
        batch: MAX_BATCH,
        threads: 1,
    };
    let graph = CompiledGraph::compile(&mut model, calib, &spec).expect("serve graph compiles");
    GraphModel::new(graph)
}

pub fn oracle(seed: u64) -> Result<Oracle, String> {
    let calib = gen::activations(MAX_BATCH, IN_C, HW, HW, &mut gen::rng(CALIBRATION_SEED, 0));
    let inputs = gen::activations(POOL, IN_C, HW, HW, &mut gen::rng(seed, 402));
    let mut fp32 = mini_vgg(IN_C, WIDTH, CLASSES, VGG_WEIGHTS_SEED);
    let reference = fp32.forward(&inputs);
    let macs_per_image = crate::model::conv_shapes(&fp32, 1, HW)
        .iter()
        .map(|s| s.direct_macs())
        .sum();
    let mut direct = compile(&calib);
    let il = direct.input_len();
    let mut expected = Vec::with_capacity(POOL);
    let mut bodies = Vec::with_capacity(POOL);
    for input in inputs.data().chunks_exact(il) {
        let mut out = vec![0.0f32; CLASSES];
        direct.infer(input, 1, &mut out)?;
        expected.push(out);
        bodies.push(input.iter().flat_map(|v| v.to_le_bytes()).collect());
    }
    let flat: Vec<f32> = expected.iter().flatten().copied().collect();
    let out_err_rel = gen::rel_err(gen::sq_err(&flat, reference.data()));
    let head = format!("POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 4 * il);
    Ok(Oracle {
        calib,
        head,
        bodies,
        expected,
        out_err_rel,
        macs_per_image,
    })
}

/// What the traced run's model wrapper counts: time inside the inner
/// `infer`, batches and requests.
#[derive(Default)]
pub struct ModelLog {
    pub busy_ns: AtomicU64,
    pub batches: AtomicU64,
    pub requests: AtomicU64,
}

/// A `BatchModel` that times the inner model's `infer` from outside, under
/// a `ledger/serve.model_infer` span.
pub struct TimedModel {
    inner: GraphModel,
    log: Arc<ModelLog>,
}

impl BatchModel for TimedModel {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }
    fn output_len(&self) -> usize {
        self.inner.output_len()
    }
    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }
    fn infer(&mut self, inputs: &[f32], count: usize, outputs: &mut [f32]) -> Result<(), String> {
        let start = Instant::now();
        let result = {
            let _call = lowino_trace::span_arg(spans::MODEL_INFER, count as u64);
            self.inner.infer(inputs, count, outputs)
        };
        self.log
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.log.batches.fetch_add(1, Ordering::Relaxed);
        self.log.requests.fetch_add(count as u64, Ordering::Relaxed);
        result
    }
    fn demotions(&self) -> usize {
        self.inner.demotions()
    }
    fn algorithms(&self) -> Vec<String> {
        self.inner.algorithms()
    }
    fn set_degraded(&mut self, degraded: bool) {
        self.inner.set_degraded(degraded)
    }
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        threads_per_shard: 1,
        max_batch: MAX_BATCH,
        max_delay_ns: 1_000_000,
        queue_cap: 64,
        ..ServeConfig::default()
    }
}

/// A started, warmed server with its client connections.
pub struct Serving {
    // Declared first so a dropped `Serving` closes its connections before
    // the server drains.
    conns: Vec<BufReader<DuplexStream>>,
    server: Server,
}

/// How one `/infer` round trip ended.
#[derive(PartialEq)]
enum Answer {
    /// 200, right length, body matches the direct inference of the input.
    Correct,
    /// 503 or 504: the server declined the request.
    Refused,
    /// Any other status, a wrong length or a wrong body.
    Wrong,
}

impl Oracle {
    /// Everything `setup_s` times on the serve workload: server start
    /// (shard threads compile the graph), the client connections, and
    /// warm-up requests on each connection, all output-checked.
    pub fn start(&self, shards: usize, log: Option<Arc<ModelLog>>) -> Result<Serving, String> {
        let calib = self.calib.clone();
        let server = match log {
            None => Server::start(config(shards), move |_| compile(&calib)),
            Some(log) => Server::start(config(shards), move |_| TimedModel {
                inner: compile(&calib),
                log: Arc::clone(&log),
            }),
        }?;
        let mut conns: Vec<_> = (0..CONNECTIONS)
            .map(|_| BufReader::new(server.connect()))
            .collect();
        for conn in &mut conns {
            for i in 0..4 * shards * MAX_BATCH {
                if self.request(conn, i % POOL)? != Answer::Correct {
                    return Err("warm-up request failed its output check".into());
                }
            }
        }
        Ok(Serving { conns, server })
    }

    /// One `/infer` round trip, output-checked.
    fn request(&self, conn: &mut BufReader<DuplexStream>, input: usize) -> Result<Answer, String> {
        let stream = conn.get_mut();
        stream
            .write_all(self.head.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        stream
            .write_all(&self.bodies[input])
            .map_err(|e| format!("send: {e}"))?;
        let resp = read_response(conn).map_err(|e| format!("receive: {e}"))?;
        if matches!(resp.status, 503 | 504) {
            return Ok(Answer::Refused);
        }
        if resp.status != 200 || resp.body.len() != 4 * CLASSES {
            return Ok(Answer::Wrong);
        }
        let got: Vec<f32> = resp
            .body
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        if gen::rel_err(gen::sq_err(&got, &self.expected[input])) <= BODY_TOL {
            Ok(Answer::Correct)
        } else {
            Ok(Answer::Wrong)
        }
    }
}

/// What one stretch of load produced.
pub struct Load {
    /// Latencies (from scheduled send) of the requests that got a correct
    /// 200; `attempted` is every request scheduled, `failed` the rest.
    pub window: Window,
    /// Requests that did not get a correct 200 within the SLO.
    pub slo_misses: u64,
    /// How late each request was actually sent, ns.
    pub send_late_ns: Vec<u64>,
    /// Requests answered with a wrong body or an unexpected status (not a
    /// refusal): the output check proper.
    pub wrong: u64,
}

struct ClientLog {
    /// (scheduled send time, latency) of each correct 200.
    lat_ns: Vec<(u64, u64)>,
    late_ns: Vec<u64>,
    attempted: u64,
    slo_misses: u64,
    wrong: u64,
    last_reply: Instant,
}

impl Serving {
    /// Drive the open loop for `seconds`: every connection sends on its own
    /// seeded Poisson schedule and waits for each reply before the next
    /// send, so a request that is due while the previous one is still out
    /// goes late and its latency includes that wait.
    pub fn drive(&mut self, oracle: &Oracle, seed: u64, seconds: f64) -> Load {
        let horizon_ns = (seconds * 1e9) as u64;
        let mean_gap_ns = (1e9 / RATE_PER_CONNECTION) as u64;
        let t0 = Instant::now() + Duration::from_millis(2);
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        let mut arrivals = PoissonArrivals::new(
                            gen::rng(seed, 410 + c as u64).next_u64(),
                            mean_gap_ns,
                        );
                        let mut pick = gen::rng(seed, 420 + c as u64);
                        let mut log = ClientLog {
                            lat_ns: Vec::new(),
                            late_ns: Vec::new(),
                            attempted: 0,
                            slo_misses: 0,
                            wrong: 0,
                            last_reply: t0,
                        };
                        loop {
                            let at_ns = arrivals.next_arrival_ns();
                            if at_ns >= horizon_ns {
                                break;
                            }
                            let due = t0 + Duration::from_nanos(at_ns);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let id = ((c as u64) << 32) | log.attempted;
                            let input = pick.range_usize(0, POOL);
                            log.late_ns.push(due.elapsed().as_nanos() as u64);
                            let answer = {
                                let _req = lowino_trace::span_arg(spans::REQUEST, id);
                                oracle.request(conn, input)
                            };
                            let lat = due.elapsed();
                            log.last_reply = Instant::now();
                            log.attempted += 1;
                            match answer {
                                Ok(Answer::Correct) => {
                                    log.lat_ns.push((at_ns, lat.as_nanos() as u64));
                                    if lat > SLO {
                                        log.slo_misses += 1;
                                    }
                                }
                                Ok(Answer::Refused) => log.slo_misses += 1,
                                Ok(Answer::Wrong) => {
                                    log.slo_misses += 1;
                                    log.wrong += 1;
                                }
                                Err(e) => {
                                    eprintln!("ledger: request {id:#x}: {e}");
                                    log.slo_misses += 1;
                                    log.wrong += 1;
                                    break;
                                }
                            }
                        }
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut load = Load {
            window: Window::default(),
            slo_misses: 0,
            send_late_ns: Vec::new(),
            wrong: 0,
        };
        let mut end = t0;
        let mut lat_ns = Vec::new();
        for log in logs {
            load.window.attempted += log.attempted;
            load.window.failed += log.attempted - log.lat_ns.len() as u64;
            lat_ns.extend(log.lat_ns);
            load.send_late_ns.extend(log.late_ns);
            load.slo_misses += log.slo_misses;
            load.wrong += log.wrong;
            end = end.max(log.last_reply);
        }
        lat_ns.sort_unstable();
        load.window.lat_ns = lat_ns.into_iter().map(|(_, lat)| lat).collect();
        load.window.wall = end - t0;
        load
    }

    /// Median `GET /healthz` round trip on the first load connection, µs.
    pub fn healthz_rtt_us(&mut self) -> Result<f64, String> {
        let conn = &mut self.conns[0];
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let t = Instant::now();
            conn.get_mut()
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .map_err(|e| format!("healthz send: {e}"))?;
            let resp = read_response(conn).map_err(|e| format!("healthz receive: {e}"))?;
            if resp.status != 200 {
                return Err(format!("/healthz answered {}", resp.status));
            }
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&mut rtts))
    }

    /// Close the connections, drain and join the server; the final counters.
    pub fn shutdown(self) -> StatsSnapshot {
        drop(self.conns);
        self.server.shutdown()
    }
}

/// `accepted − (completed + failed + timed_out + unavailable)`: requests
/// the server admitted and never answered. Must be 0.
pub fn accounting_gap(s: &StatsSnapshot) -> f64 {
    s.accepted as f64 - (s.completed + s.failed + s.timed_out + s.unavailable) as f64
}
