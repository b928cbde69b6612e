//! The threaded server: connection handlers feed one shared
//! [`BatcherCore`], a dispatcher thread releases ready batches to the
//! shortest-backlog shard — at once while some shard is idle, coalescing
//! only while every shard is busy — each shard runs its own
//! [`BatchModel`] on its own engine (and thread pool), and a supervisor
//! thread keeps the shards alive: it detects dead and wedged workers,
//! steals their in-flight work for exactly-once replay, respawns them
//! with exponential backoff, and runs the overload-brownout controller.
//!
//! Thread/ownership layout:
//!
//! ```text
//! conn threads ──offer──▶ BatcherCore (Mutex) ◀──take── dispatcher ──▶ shard slot 0 ─ worker 0
//!      ▲                        │ Condvar                    │          shard slot 1 ─ worker 1 …
//!      └──── Ticket (oneshot) ◀─┤                            │ (min-depth pick)
//!                               │    supervisor ──heartbeats/steal/respawn──▶ slots
//!                               └──requeue_front── supervisor (replay)
//! ```
//!
//! Each piece of state has one owner: `Shared` holds the normalised
//! [`ServeConfig`] once, each [`ShardSlot`] holds its shard's mailbox,
//! health and `/stats` counters, and the brownout rung is the
//! supervisor's alone: it sets the batcher's limits and publishes the
//! rung for `/stats`; no worker reads it.
//!
//! Guarantees the tests pin down:
//!
//! * **backpressure, not loss** — the batcher queue is bounded (503 on
//!   overflow) and shard mailboxes are bounded (a slow shard backs the
//!   queue up into 503s); an *accepted* request always gets exactly one
//!   response — 200, 500, 504 or 503 — including across shard deaths,
//!   wedges and shutdown: `accepted == completed + failed + timed_out +
//!   unavailable`. This holds by construction: an accepted request owns
//!   a [`Ticket`] that `answer` consumes, and a ticket dropped
//!   unanswered reads as the 503.
//! * **deadlines** — requests carry an absolute deadline
//!   (`X-Lowino-Deadline-Us`, default [`ServeConfig::default_deadline_ns`]);
//!   an expired request is shed with a 504 *before* it costs shard work.
//! * **self-healing** — shard workers heartbeat; the supervisor abandons
//!   a wedged worker (stale heartbeat with work pending), steals its
//!   in-flight batch, replays it FIFO, and respawns via the model
//!   factory with exponential backoff, giving up (state `Dead`, traffic
//!   routed to survivors) after `max_restarts`.
//! * **brownout** — under queue-depth or p99-vs-deadline pressure the
//!   [`BrownoutPolicy`] steps `max_batch`/`max_delay_ns` down,
//!   hysteretically stepping back up when pressure clears.
//! * **panic isolation** — each connection handler runs under
//!   `catch_unwind` (counted in `/stats`), and shard inference panics
//!   are converted into 500 responses rather than hangs.
//! * **observability** — `serve/request` and `serve/batch` spans,
//!   `serve/queue_depth`, `serve/batch_occupancy`, `serve/shard_restart`,
//!   `serve/deadline_shed` and `serve/brownout` instants, the
//!   `serve/requests` counter; `/stats` serves everything as JSON and
//!   `/healthz` turns 503 when every shard is dead.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batcher::{split_expired, BatchConfig, BatcherCore, Pending, Taken, NO_DEADLINE};
use crate::brownout::{BrownoutConfig, BrownoutInput, BrownoutPolicy, BrownoutStep};
use crate::clock::{Clock, SystemClock};
use crate::http::{self, HttpError, HttpLimits};
use crate::model::BatchModel;
use crate::supervisor::{backoff_ns, Recv, ShardSlot, ShardState};
use crate::transport::{duplex_pair, DuplexStream};

use lowino_testkit::faults::{SHARD_SPAWN, SHARD_WEDGE};

/// How often an idle shard worker wakes to heartbeat (wall time). The
/// wedge detector tolerates one missed period, so `wedge_timeout` must
/// sit well above this.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(2);

/// Wall pacing of the supervisor's detection loop.
const SUPERVISOR_TICK: Duration = Duration::from_millis(1);

/// Restart backoff ceiling.
const BACKOFF_CAP_NS: u64 = 1_000_000_000; // 1 s

/// During shutdown the virtual clock may be frozen, so wedge detection
/// falls back to wall time: a worker whose progress counter has not
/// moved for this many supervisor ticks while work is pending is
/// abandoned so shutdown can complete.
const SHUTDOWN_STAGNANT_TICKS: u32 = 200;

/// Recent-latency window feeding the brownout p99 estimate.
const LATENCY_WINDOW: usize = 512;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine shards: independent models, each with its own thread pool.
    pub shards: usize,
    /// Worker threads per shard's engine.
    pub threads_per_shard: usize,
    /// Batch size bound (must be ≤ the model's planned batch capacity).
    pub max_batch: usize,
    /// Coalescing deadline while every shard is busy: dispatch a partial
    /// batch once its oldest request is this old. A request that finds a
    /// live, warmed shard idle is dispatched at once.
    pub max_delay_ns: u64,
    /// Admission bound on the shared queue (503 beyond).
    pub queue_cap: usize,
    /// Batches in flight per shard before backpressure reaches the
    /// queue.
    pub shard_queue: usize,
    /// HTTP input limits.
    pub limits: HttpLimits,
    /// Default relative request deadline for requests without an
    /// `X-Lowino-Deadline-Us` header ([`NO_DEADLINE`] = none).
    pub default_deadline_ns: u64,
    /// No heartbeat for this long while work is pending ⇒ the shard is
    /// wedged: abandon, steal, respawn.
    pub wedge_timeout_ns: u64,
    /// Respawns per shard before it is declared `Dead` for good.
    pub max_restarts: u64,
    /// Base restart backoff (doubles per restart, capped at 1 s).
    pub restart_backoff_ns: u64,
    /// Overload-brownout thresholds.
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            threads_per_shard: 1,
            max_batch: 4,
            max_delay_ns: 2_000_000, // 2 ms
            queue_cap: 64,
            shard_queue: 2,
            limits: HttpLimits::default(),
            default_deadline_ns: NO_DEADLINE,
            wedge_timeout_ns: 500_000_000, // 500 ms
            max_restarts: 5,
            restart_backoff_ns: 10_000_000, // 10 ms
            brownout: BrownoutConfig::default(),
        }
    }
}

/// An answer a shard owes a request (a 503 is a dropped [`Ticket`]).
enum Reply {
    /// Inference output → 200.
    Output(Vec<f32>),
    /// Inference error or panic → 500.
    Failed(String),
    /// Deadline expired before execution → 504.
    Expired,
}

/// The right to answer one accepted request, consumed by
/// [`Ticket::answer`]. Dropping it unanswered (every shard dead, or
/// stolen at shutdown) closes the channel, which the connection reads as
/// a 503 counted in [`StatsSnapshot::unavailable`]: every accepted
/// request has exactly one fate without any call site remembering it.
struct Ticket(SyncSender<Reply>);

impl Ticket {
    /// A ticket and the end its connection waits on.
    fn new() -> (Self, Receiver<Reply>) {
        let (tx, rx) = mpsc::sync_channel(1);
        (Self(tx), rx)
    }

    fn answer(self, reply: Reply) {
        // The connection may be gone (client hung up); nothing is owed.
        let _ = self.0.send(reply);
    }
}

/// One queued inference: decoded input plus the ticket back to the
/// connection thread.
struct Job {
    input: Vec<f32>,
    ticket: Ticket,
}

type Batch = Vec<Pending<Job>>;

type Slot = ShardSlot<Batch>;

/// Split off what has expired at `now_ns` and answer it 504, keeping
/// the rest of `batch` in order.
fn time_out_expired(batch: &mut Batch, now_ns: u64) {
    for p in split_expired(batch, now_ns) {
        p.payload.ticket.answer(Reply::Expired);
    }
}

/// What the supervisor observed (virtual-clock timestamps — the
/// property tests assert detection latencies against these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEventKind {
    /// Heartbeat stale with work pending: worker abandoned.
    WedgeDetected,
    /// Worker thread exited outside shutdown.
    DeathDetected,
    /// A replacement worker was spawned.
    Respawned,
    /// Restart budget exhausted: shard is `Dead` for good.
    GaveUp,
}

/// One supervisor observation, stamped with the supervising clock.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorEvent {
    /// Which shard.
    pub shard: usize,
    /// What happened.
    pub kind: SupervisorEventKind,
    /// `clock.now_ns()` at the observation (virtual under `VirtualClock`).
    pub at_ns: u64,
}

struct Shared {
    batcher: Mutex<BatcherCore<Job>>,
    dispatch_cv: Condvar,
    clock: Arc<dyn Clock>,
    shutdown: AtomicBool,
    /// The configuration, normalised once at start (positive timeouts,
    /// backoff and mailbox bound).
    cfg: ServeConfig,
    /// `(input_len, output_len)` reported by the shard models.
    dims: OnceLock<(usize, usize)>,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    unavailable: AtomicU64,
    http_errors: AtomicU64,
    conn_panics: AtomicU64,
    shutdown_rejects: AtomicU64,
    deadline_rejects: AtomicU64,
    open_conns: AtomicUsize,
    slots: Vec<Slot>,
    /// Recent end-to-end latencies (brownout p99 input).
    latency: Mutex<VecDeque<u64>>,
    /// Current brownout rung, published for `/stats`.
    brownout_rung: AtomicU64,
    sup_stop: Mutex<bool>,
    sup_cv: Condvar,
    events: Mutex<Vec<SupervisorEvent>>,
}

impl Shared {
    fn record_latency(&self, ns: u64) {
        let mut w = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        if w.len() >= LATENCY_WINDOW {
            w.pop_front();
        }
        w.push_back(ns);
    }

    fn latency_p99(&self) -> Option<u64> {
        let w = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        if w.len() < 20 {
            return None;
        }
        let mut v: Vec<u64> = w.iter().copied().collect();
        v.sort_unstable();
        Some(v[((v.len() * 99) / 100).min(v.len() - 1)])
    }

    fn log_event(&self, shard: usize, kind: SupervisorEventKind, at_ns: u64) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SupervisorEvent { shard, kind, at_ns });
    }

    fn all_dead(&self) -> bool {
        self.slots.iter().all(|s| s.state() == ShardState::Dead)
    }
}

/// Point-in-time view of every counter (also what `/stats` serializes).
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// 503s from the queue bound.
    pub rejected: u64,
    /// 503s because shutdown had begun.
    pub shutdown_rejects: u64,
    /// 504s at admission (already expired on arrival — never accepted,
    /// so not part of the `accepted` accounting identity).
    pub deadline_rejects: u64,
    /// 200s delivered.
    pub completed: u64,
    /// 500s delivered (inference errors/panics).
    pub failed: u64,
    /// 504s delivered (deadline expired before execution).
    pub timed_out: u64,
    /// 503s delivered to *accepted* requests (no shard could run them).
    pub unavailable: u64,
    /// Batches released by the batcher.
    pub batches: u64,
    /// Requests released in those batches.
    pub dispatched: u64,
    /// Requests shed from the queue as expired.
    pub shed: u64,
    /// Requests re-enqueued (shard replay or dispatch deferral).
    pub replayed: u64,
    /// Mean batch occupancy.
    pub mean_occupancy: f64,
    /// Queue depth right now.
    pub queue_depth: usize,
    /// High-water queue depth.
    pub max_queue_depth: usize,
    /// Malformed / mis-shaped requests answered 4xx.
    pub http_errors: u64,
    /// Connection handlers that panicked (should stay 0).
    pub conn_panics: u64,
    /// Total demotions across all shard ladders.
    pub demotions: u64,
    /// Current brownout rung (0 = healthy).
    pub brownout_rung: u64,
    /// Per-shard detail.
    pub per_shard: Vec<ShardSnapshot>,
}

/// Per-shard counters and supervision state.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Requests this shard answered.
    pub requests: u64,
    /// Batches this shard executed.
    pub batches: u64,
    /// Demotions taken by this shard's ladders.
    pub demotions: u64,
    /// Active algorithm per conv, in op order.
    pub algorithms: Vec<String>,
    /// Supervision state (`healthy`/`wedged`/`restarting`/`dead`).
    pub state: &'static str,
    /// Is the worker thread running right now?
    pub alive: bool,
    /// Is the worker still building its model (alive, not yet serving)?
    pub warming: bool,
    /// Completed respawns.
    pub restarts: u64,
    /// Requests stolen from this shard and replayed.
    pub replayed: u64,
    /// `now - last_heartbeat` on the server's clock.
    pub heartbeat_age_ns: u64,
    /// Mailbox backlog right now.
    pub queue_depth: usize,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl StatsSnapshot {
    /// Serialize for the `/stats` endpoint.
    pub fn to_json(&self) -> String {
        let per_shard: Vec<String> = self
            .per_shard
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let algos: Vec<String> = s
                    .algorithms
                    .iter()
                    .map(|a| format!("\"{}\"", json_escape(a)))
                    .collect();
                format!(
                    "{{\"shard\":{},\"requests\":{},\"batches\":{},\"demotions\":{},\
                     \"state\":\"{}\",\"alive\":{},\"warming\":{},\
                     \"restarts\":{},\
                     \"replayed\":{},\"heartbeat_age_ns\":{},\"queue_depth\":{},\
                     \"algorithms\":[{}]}}",
                    i,
                    s.requests,
                    s.batches,
                    s.demotions,
                    s.state,
                    s.alive,
                    s.warming,
                    s.restarts,
                    s.replayed,
                    s.heartbeat_age_ns,
                    s.queue_depth,
                    algos.join(",")
                )
            })
            .collect();
        format!(
            "{{\"shards\":{},\"accepted\":{},\"rejected\":{},\"shutdown_rejects\":{},\
             \"deadline_rejects\":{},\
             \"completed\":{},\"failed\":{},\"timed_out\":{},\"unavailable\":{},\
             \"batches\":{},\"dispatched\":{},\"shed\":{},\"replayed\":{},\
             \"mean_occupancy\":{:.3},\"queue_depth\":{},\"max_queue_depth\":{},\
             \"http_errors\":{},\"conn_panics\":{},\"demotions\":{},\"brownout_rung\":{},\
             \"per_shard\":[{}]}}",
            self.per_shard.len(),
            self.accepted,
            self.rejected,
            self.shutdown_rejects,
            self.deadline_rejects,
            self.completed,
            self.failed,
            self.timed_out,
            self.unavailable,
            self.batches,
            self.dispatched,
            self.shed,
            self.replayed,
            self.mean_occupancy,
            self.queue_depth,
            self.max_queue_depth,
            self.http_errors,
            self.conn_panics,
            self.demotions,
            self.brownout_rung,
            per_shard.join(",")
        )
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let (bs, depth) = {
        let b = shared.batcher.lock().unwrap_or_else(|e| e.into_inner());
        (b.stats(), b.depth())
    };
    let per_shard: Vec<ShardSnapshot> = shared
        .slots
        .iter()
        .map(|slot| ShardSnapshot {
            requests: slot.requests.load(Ordering::Acquire),
            batches: slot.batches.load(Ordering::Acquire),
            demotions: slot.demotions.load(Ordering::Acquire),
            algorithms: slot
                .algorithms
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            state: slot.state().as_str(),
            alive: slot.is_alive(),
            warming: slot.is_warming(),
            restarts: slot.restarts(),
            replayed: slot.replayed(),
            heartbeat_age_ns: shared.clock.age_ns(slot.last_beat_ns()),
            queue_depth: slot.depth(),
        })
        .collect();
    StatsSnapshot {
        accepted: bs.accepted,
        rejected: bs.rejected,
        shutdown_rejects: shared.shutdown_rejects.load(Ordering::Acquire),
        deadline_rejects: shared.deadline_rejects.load(Ordering::Acquire),
        completed: shared.completed.load(Ordering::Acquire),
        failed: shared.failed.load(Ordering::Acquire),
        timed_out: shared.timed_out.load(Ordering::Acquire),
        unavailable: shared.unavailable.load(Ordering::Acquire),
        batches: bs.batches,
        dispatched: bs.dispatched,
        shed: bs.shed,
        replayed: bs.replayed,
        mean_occupancy: bs.mean_occupancy(),
        queue_depth: depth,
        max_queue_depth: bs.max_depth,
        http_errors: shared.http_errors.load(Ordering::Acquire),
        conn_panics: shared.conn_panics.load(Ordering::Acquire),
        demotions: per_shard.iter().map(|s| s.demotions).sum(),
        brownout_rung: shared.brownout_rung.load(Ordering::Acquire),
        per_shard,
    }
}

/// The running server. Dropping it (or calling [`Server::shutdown`])
/// drains the queue, answers every accepted request and joins every
/// thread.
pub struct Server {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    accept_handle: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Server {
    /// Start shards, dispatcher and supervisor under the real-time
    /// clock. `factory(shard_index)` is called **inside** each shard's
    /// thread to build its model — models never cross threads — and
    /// again on every supervised respawn.
    pub fn start<M, F>(cfg: ServeConfig, factory: F) -> Result<Self, String>
    where
        M: BatchModel + 'static,
        F: Fn(usize) -> M + Send + Sync + 'static,
    {
        Self::start_with_clock(cfg, factory, Arc::new(SystemClock::new()))
    }

    /// [`Server::start`] with an explicit [`Clock`] (virtual in tests).
    pub fn start_with_clock<M, F>(
        cfg: ServeConfig,
        factory: F,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, String>
    where
        M: BatchModel + 'static,
        F: Fn(usize) -> M + Send + Sync + 'static,
    {
        assert!(cfg.shards >= 1, "need at least one shard");
        let cfg = ServeConfig {
            wedge_timeout_ns: cfg.wedge_timeout_ns.max(1),
            restart_backoff_ns: cfg.restart_backoff_ns.max(1),
            shard_queue: cfg.shard_queue.max(1),
            ..cfg
        };
        let now = clock.now_ns();
        let shared = Arc::new(Shared {
            batcher: Mutex::new(BatcherCore::new(BatchConfig {
                max_batch: cfg.max_batch,
                max_delay_ns: cfg.max_delay_ns,
                queue_cap: cfg.queue_cap,
                ..BatchConfig::default()
            })),
            dispatch_cv: Condvar::new(),
            clock,
            shutdown: AtomicBool::new(false),
            dims: OnceLock::new(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            conn_panics: AtomicU64::new(0),
            shutdown_rejects: AtomicU64::new(0),
            deadline_rejects: AtomicU64::new(0),
            open_conns: AtomicUsize::new(0),
            slots: (0..cfg.shards).map(|_| Slot::new()).collect(),
            latency: Mutex::new(VecDeque::new()),
            brownout_rung: AtomicU64::new(0),
            sup_stop: Mutex::new(false),
            sup_cv: Condvar::new(),
            events: Mutex::new(Vec::new()),
            cfg,
        });
        let cfg = &shared.cfg;
        // Heartbeat stamps start at "now" so a fresh shard is never
        // instantly stale under a virtual clock far from zero.
        for slot in &shared.slots {
            slot.beat(now);
        }

        let factory = Arc::new(factory);
        let (dims_tx, dims_rx) = mpsc::channel::<(usize, usize, usize)>();
        for idx in 0..cfg.shards {
            spawn_shard_worker(&shared, &factory, idx, Some(dims_tx.clone()))
                .map_err(|e| format!("spawning shard {idx}: {e}"))?;
        }
        drop(dims_tx);

        // Handshake: every shard reports its model's shape before the
        // server accepts traffic; inconsistent factories are a hard
        // start-up error, not a runtime surprise.
        let fail_startup = |shared: &Arc<Shared>, msg: String| -> String {
            shared.shutdown.store(true, Ordering::Release);
            for slot in &shared.slots {
                slot.close();
            }
            for slot in &shared.slots {
                if let Some(h) = slot.handle().take() {
                    let _ = h.join();
                }
            }
            msg
        };
        let mut dims: Option<(usize, usize, usize)> = None;
        for _ in 0..cfg.shards {
            let got = dims_rx.recv().map_err(|_| {
                fail_startup(&shared, "a shard died during model construction".into())
            })?;
            match dims {
                None => dims = Some(got),
                Some(d) if d != got => {
                    return Err(fail_startup(
                        &shared,
                        format!("shard models disagree on shape: {d:?} vs {got:?}"),
                    ));
                }
                Some(_) => {}
            }
        }
        let (il, ol, model_batch) = dims.expect("cfg.shards >= 1");
        if cfg.max_batch > model_batch {
            return Err(fail_startup(
                &shared,
                format!(
                    "max_batch {} exceeds the model's planned batch {}",
                    cfg.max_batch, model_batch
                ),
            ));
        }
        shared.dims.set((il, ol)).expect("dims set once");

        let shared2 = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("lowino-dispatch".into())
            .spawn(move || dispatcher_loop(shared2))
            .map_err(|e| format!("spawning dispatcher: {e}"))?;

        let shared2 = Arc::clone(&shared);
        let factory2 = Arc::clone(&factory);
        let supervisor = std::thread::Builder::new()
            .name("lowino-supervise".into())
            .spawn(move || supervisor_loop(shared2, factory2))
            .map_err(|e| format!("spawning supervisor: {e}"))?;

        Ok(Self {
            shared,
            dispatcher: Some(dispatcher),
            supervisor: Some(supervisor),
            accept_handle: None,
            local_addr: None,
        })
    }

    /// `(input_len, output_len)` in `f32`s, as reported by the shards.
    pub fn dims(&self) -> (usize, usize) {
        *self.shared.dims.get().expect("set during start")
    }

    /// Counter snapshot (the same data `/stats` serves).
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Current supervision state per shard.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.shared.slots.iter().map(|s| s.state()).collect()
    }

    /// Everything the supervisor observed so far, clock-stamped (the
    /// property tests assert detection and backoff timing on this).
    pub fn supervisor_events(&self) -> Vec<SupervisorEvent> {
        self.shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Serve one already-connected byte stream on a detached thread —
    /// the hermetic entry point ([`Server::connect`] wraps it; the TCP
    /// accept loop uses it too).
    pub fn serve_stream<S>(&self, stream: S)
    where
        S: Read + Write + Send + 'static,
    {
        spawn_connection(Arc::clone(&self.shared), stream);
    }

    /// Open an in-memory connection to this server.
    pub fn connect(&self) -> DuplexStream {
        let (client, server_end) = duplex_pair();
        self.serve_stream(server_end);
        client
    }

    /// Bind a TCP listener (e.g. `127.0.0.1:0`) and accept connections
    /// until shutdown. Returns the bound address.
    pub fn bind(&mut self, addr: &str) -> Result<SocketAddr, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("lowino-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(s) => spawn_connection(Arc::clone(&shared), s),
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| format!("spawning acceptor: {e}"))?;
        self.accept_handle = Some(handle);
        self.local_addr = Some(local);
        Ok(local)
    }

    /// Stop accepting, flush the queue (every accepted request is still
    /// answered) and join all threads.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner();
        snapshot(&self.shared)
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.dispatch_cv.notify_all();
        self.shared.sup_cv.notify_all();
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocking accept with a throwaway connection.
            if let Some(addr) = self.local_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Close mailboxes: live workers drain what is queued and exit;
        // the supervisor steals from the rest (answering 503) and
        // wall-abandons anything wedged so this wait terminates.
        for slot in &self.shared.slots {
            slot.close();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.slots.iter().any(|s| s.is_alive()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let mut stop = self
                .shared
                .sup_stop
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *stop = true;
            self.shared.sup_cv.notify_all();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        for slot in &self.shared.slots {
            let handle = slot.handle().take();
            if let Some(h) = handle {
                if slot.is_alive() {
                    // Genuinely stuck thread (never returned from the
                    // model): detach rather than hang shutdown. Its
                    // epoch is stale, so it can never answer anything.
                    drop(h);
                } else {
                    let _ = h.join();
                }
            }
        }
        // In-flight responses are already sent; give connection threads
        // a bounded window to finish writing and notice client EOFs.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.open_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.dispatcher.is_some() || self.supervisor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Clears the slot's alive flag when the worker thread exits — by
/// return *or* unwind — unless the worker was already abandoned (stale
/// epoch), in which case the flag belongs to its replacement.
struct WorkerExitGuard {
    shared: Arc<Shared>,
    idx: usize,
    epoch: u64,
}

impl Drop for WorkerExitGuard {
    fn drop(&mut self) {
        self.shared.slots[self.idx].mark_exited(self.epoch);
    }
}

/// Spawn (or respawn) shard `idx`'s worker at the slot's current epoch.
/// `dims_tx` is only passed on the initial spawn (the startup
/// handshake); respawns assert against the recorded dims instead.
fn spawn_shard_worker<M, F>(
    shared: &Arc<Shared>,
    factory: &Arc<F>,
    idx: usize,
    dims_tx: Option<mpsc::Sender<(usize, usize, usize)>>,
) -> std::io::Result<()>
where
    M: BatchModel + 'static,
    F: Fn(usize) -> M + Send + Sync + 'static,
{
    let slot = &shared.slots[idx];
    let epoch = slot.current_epoch();
    slot.mark_alive();
    slot.set_warming(true);
    let shared2 = Arc::clone(shared);
    let factory2 = Arc::clone(factory);
    let res = std::thread::Builder::new()
        .name(format!("lowino-shard-{idx}"))
        .spawn(move || run_shard(shared2, factory2, idx, epoch, dims_tx));
    match res {
        Ok(h) => {
            *slot.handle() = Some(h);
            Ok(())
        }
        Err(e) => {
            slot.clear_alive();
            Err(e)
        }
    }
}

/// The shard worker body: build the model (inside this thread), then
/// drain the mailbox — heartbeating every wake — until closed or
/// abandoned.
fn run_shard<M, F>(
    shared: Arc<Shared>,
    factory: Arc<F>,
    idx: usize,
    my_epoch: u64,
    dims_tx: Option<mpsc::Sender<(usize, usize, usize)>>,
) where
    M: BatchModel + 'static,
    F: Fn(usize) -> M + Send + Sync + 'static,
{
    let _guard = WorkerExitGuard { shared: Arc::clone(&shared), idx, epoch: my_epoch };
    if SHARD_SPAWN.fire() {
        panic!("injected fault: shard/spawn (shard {idx})");
    }
    let mut model = factory(idx);
    let il = model.input_len();
    let ol = model.output_len();
    let cap = model.max_batch();
    match dims_tx {
        Some(tx) => {
            let _ = tx.send((il, ol, cap));
        }
        None => {
            // Respawn: same factory must mean same shape.
            let (eil, eol) = *shared.dims.get().expect("dims set before respawns");
            assert_eq!((il, ol), (eil, eol), "factory changed shape across respawn");
        }
    }
    let slot = &shared.slots[idx];
    // First beat: the model is built, the worker is genuinely serving —
    // this is what ends a respawn's warm-up grace. Clearing `warming`
    // lets the dispatcher route here again (it prefers warmed shards:
    // a batch sent into a ~100ms model build would just sit there).
    slot.beat(shared.clock.now_ns());
    slot.set_warming(false);
    wake_dispatcher_if_queued(&shared);
    let mut inputs = vec![0f32; cap * il];
    let mut outputs = vec![0f32; cap * ol];
    let mut last_demotions = usize::MAX; // force one initial algorithms publish
    loop {
        let (held, mut live) = match slot.recv(my_epoch, HEARTBEAT_PERIOD) {
            Recv::Stop => break,
            Recv::Idle => (false, Vec::new()),
            Recv::Batch(batch) => (true, batch),
        };
        let now = shared.clock.now_ns();
        slot.beat(now);
        // Last line of deadline defense: anything that expired while
        // riding the mailbox is shed, not executed.
        time_out_expired(&mut live, now);
        if live.is_empty() {
            if held && slot.done(my_epoch) {
                wake_dispatcher_if_queued(&shared);
            }
            continue;
        }
        let n = live.len();
        debug_assert!(n <= cap, "dispatcher respects max_batch");
        for (i, p) in live.iter().enumerate() {
            inputs[i * il..(i + 1) * il].copy_from_slice(&p.payload.input);
        }
        // Park the batch where the supervisor can steal it, then probe
        // the wedge fault: a triggered wedge stops heartbeating and holds
        // the batch until abandoned — exactly what a model stuck in
        // native code looks like.
        slot.set_active(live);
        if SHARD_WEDGE.fire() {
            while slot.current_epoch() == my_epoch {
                std::thread::sleep(Duration::from_micros(500));
            }
            return; // abandoned; the batch was stolen for replay
        }
        let _sp = lowino_trace::span_arg("serve/batch", n as u64);
        // A panic inside inference (an armed fault the ladder could not
        // absorb) must not strand the batch's callers.
        let result = catch_unwind(AssertUnwindSafe(|| {
            model.infer(&inputs[..n * il], n, &mut outputs[..n * ol])
        }))
        .unwrap_or_else(|_| Err("inference panicked".into()));
        // Reclaim the batch. `None` means the supervisor stole it
        // mid-flight (we were declared wedged): the thief owns the
        // tickets now — exit without answering.
        let Some(live) = slot.take_active_if_current(my_epoch) else {
            return;
        };
        for (i, p) in live.into_iter().enumerate() {
            p.payload.ticket.answer(match &result {
                Ok(()) => Reply::Output(outputs[i * ol..(i + 1) * ol].to_vec()),
                Err(msg) => Reply::Failed(msg.clone()),
            });
        }
        slot.requests.fetch_add(n as u64, Ordering::AcqRel);
        slot.batches.fetch_add(1, Ordering::AcqRel);
        let demos = model.demotions();
        slot.demotions.store(demos as u64, Ordering::Release);
        if demos != last_demotions {
            last_demotions = demos;
            *slot.algorithms.lock().unwrap_or_else(|e| e.into_inner()) = model.algorithms();
        }
        slot.beat(shared.clock.now_ns());
        if slot.done(my_epoch) {
            wake_dispatcher_if_queued(&shared);
        }
    }
}

/// A shard just went idle: wake the dispatcher if requests are queued,
/// so they go now rather than at the coalescing deadline. Notifying under
/// the batcher lock cannot be lost: the dispatcher tests idleness and
/// starts waiting under that same lock.
fn wake_dispatcher_if_queued(shared: &Shared) {
    let b = shared.batcher.lock().unwrap_or_else(|e| e.into_inner());
    if b.depth() > 0 {
        shared.dispatch_cv.notify_all();
    }
}

fn spawn_connection<S>(shared: Arc<Shared>, stream: S)
where
    S: Read + Write + Send + 'static,
{
    shared.open_conns.fetch_add(1, Ordering::AcqRel);
    let shared2 = Arc::clone(&shared);
    let res = std::thread::Builder::new()
        .name("lowino-conn".into())
        .spawn(move || {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                handle_connection(&shared2, stream);
            }));
            if caught.is_err() {
                shared2.conn_panics.fetch_add(1, Ordering::AcqRel);
            }
            shared2.open_conns.fetch_sub(1, Ordering::AcqRel);
        });
    if res.is_err() {
        // Spawn failed (OS thread exhaustion): the thread never ran, so
        // undo its count and drop the stream (hard disconnect).
        shared.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection<S: Read + Write>(shared: &Arc<Shared>, stream: S) {
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader, &shared.cfg.limits) {
            Ok(r) => r,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(HttpError::Bad { status, reason }) => {
                shared.http_errors.fetch_add(1, Ordering::AcqRel);
                let _ = http::write_error(reader.get_mut(), status, reason, false);
                break;
            }
        };
        let _sp = lowino_trace::span("serve/request");
        let keep = req.keep_alive;
        let ok = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/infer") => handle_infer(shared, &mut reader, &req),
            ("GET", "/stats") => {
                let json = snapshot(shared).to_json();
                http::write_response(
                    reader.get_mut(),
                    200,
                    "application/json",
                    json.as_bytes(),
                    keep,
                )
                .is_ok()
            }
            ("GET", "/healthz") => {
                if shared.all_dead() {
                    http::write_error(reader.get_mut(), 503, "all shards dead", keep)
                        .is_ok()
                } else {
                    http::write_response(reader.get_mut(), 200, "text/plain", b"ok\n", keep)
                        .is_ok()
                }
            }
            ("GET" | "POST", _) => {
                shared.http_errors.fetch_add(1, Ordering::AcqRel);
                http::write_error(reader.get_mut(), 404, "no such endpoint", keep).is_ok()
            }
            _ => {
                shared.http_errors.fetch_add(1, Ordering::AcqRel);
                http::write_error(reader.get_mut(), 405, "method not allowed", keep)
                    .is_ok()
            }
        };
        if !ok || !keep {
            break;
        }
    }
}

/// Handle one `/infer`: decode, stamp a deadline, offer, await the
/// reply, respond. Returns false when the connection should close
/// (write failure).
fn handle_infer<S: Read + Write>(
    shared: &Arc<Shared>,
    reader: &mut BufReader<S>,
    req: &http::Request,
) -> bool {
    let (il, _) = *shared.dims.get().expect("dims set before serving");
    let keep = req.keep_alive;
    if req.body.len() != il * 4 {
        shared.http_errors.fetch_add(1, Ordering::AcqRel);
        return http::write_error(
            reader.get_mut(),
            400,
            "body must be input_len f32s (little-endian)",
            keep,
        )
        .is_ok();
    }
    let input: Vec<f32> = req
        .body
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    if input.iter().any(|v| !v.is_finite()) {
        // Checked where input from outside enters the program: a NaN image
        // would be answered with meaningless logits and could demote the
        // shard's conv ladders for the shard's life.
        shared.http_errors.fetch_add(1, Ordering::AcqRel);
        return http::write_error(reader.get_mut(), 400, "body holds a non-finite f32", keep)
            .is_ok();
    }
    let start = shared.clock.now_ns();
    let deadline_ns = match req.deadline_us {
        Some(us) => start.saturating_add(us.saturating_mul(1_000)),
        None => start.saturating_add(shared.cfg.default_deadline_ns),
    };
    if deadline_ns != NO_DEADLINE && start >= deadline_ns {
        // `X-Lowino-Deadline-Us: 0` — expired on arrival; shed at
        // admission, before it can cost queue space or shard work. Not
        // counted in `timed_out`: the request was never accepted, so it
        // is outside the accepted-accounting identity (like `rejected`).
        shared.deadline_rejects.fetch_add(1, Ordering::AcqRel);
        lowino_trace::instant("serve/deadline_shed", 1);
        return http::write_error(reader.get_mut(), 504, "deadline expired", keep).is_ok();
    }
    let (ticket, rx) = Ticket::new();
    let job = Job { input, ticket };
    let accepted = {
        let mut b = shared.batcher.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::Acquire) {
            shared.shutdown_rejects.fetch_add(1, Ordering::AcqRel);
            false
        } else {
            let ok = b.offer(job, start, deadline_ns).is_ok();
            lowino_trace::instant("serve/queue_depth", b.depth() as u64);
            ok
        }
    };
    if !accepted {
        return http::write_error(reader.get_mut(), 503, "queue full", keep).is_ok();
    }
    lowino_trace::counter("serve/requests", 1);
    // A shard may be idle, or the batch this request joined may now be
    // full — wake the dispatcher so either goes without waiting a
    // deadline.
    shared.dispatch_cv.notify_all();
    respond(shared, reader.get_mut(), rx, start, keep)
}

/// Wait for an accepted request's one reply, count its outcome and write
/// it. A ticket dropped unanswered is the 503. Returns false when the
/// write failed.
fn respond<W: Write>(
    shared: &Shared,
    w: &mut W,
    rx: Receiver<Reply>,
    start_ns: u64,
    keep: bool,
) -> bool {
    let reply = rx.recv();
    shared.record_latency(shared.clock.age_ns(start_ns));
    match reply {
        Ok(Reply::Output(out)) => {
            let mut bytes = Vec::with_capacity(out.len() * 4);
            for v in &out {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            shared.completed.fetch_add(1, Ordering::AcqRel);
            http::write_response(w, 200, "application/octet-stream", &bytes, keep).is_ok()
        }
        Ok(Reply::Failed(msg)) => {
            shared.failed.fetch_add(1, Ordering::AcqRel);
            http::write_error(w, 500, &msg, keep).is_ok()
        }
        Ok(Reply::Expired) => {
            shared.timed_out.fetch_add(1, Ordering::AcqRel);
            lowino_trace::instant("serve/deadline_shed", 1);
            http::write_error(w, 504, "deadline exceeded", keep).is_ok()
        }
        Err(_) => {
            shared.unavailable.fetch_add(1, Ordering::AcqRel);
            http::write_error(w, 503, "shard unavailable", keep).is_ok()
        }
    }
}

/// Can this shard take traffic — alive and warmed?
fn serving(slot: &Slot) -> bool {
    slot.is_alive() && !slot.is_warming()
}

/// Is some serving shard idle — mailbox empty, worker holding no batch?
/// Then the batcher releases what is queued at once.
fn any_idle(shared: &Shared) -> bool {
    shared.slots.iter().any(|s| serving(s) && s.load() == 0)
}

/// Queue-depth-weighted dispatch order: every *alive and warmed* slot,
/// cheapest load first (mailbox backlog plus the batch the worker
/// holds), round-robin tie-broken so equal-load shards share traffic.
/// Warming shards (alive, but still rebuilding their model after a
/// respawn — ~100ms) get no traffic at all: their empty mailbox makes
/// them look ideal by depth, yet a batch routed there rots for the whole
/// build while warmed survivors free up in single-digit milliseconds.
/// An empty order therefore means "retry shortly", which the caller's
/// requeue path already handles.
fn pick_order(shared: &Shared, rr: usize, order: &mut Vec<usize>) {
    let n = shared.slots.len();
    order.clear();
    order.extend((0..n).map(|k| (rr + k) % n).filter(|&i| serving(&shared.slots[i])));
    // A stable sort: equal loads keep the rotated order.
    order.sort_by_cached_key(|&i| shared.slots[i].load());
}

fn dispatcher_loop(shared: Arc<Shared>) {
    let mut rr = 0usize;
    'outer: loop {
        let mut flushing = false;
        let (mut taken, now) = {
            let mut b = shared.batcher.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let now = shared.clock.now_ns();
                if shared.shutdown.load(Ordering::Acquire) {
                    // Force-flush: accepted requests are answered even
                    // though their coalescing deadline hasn't expired
                    // (expired ones get their 504 at the shard).
                    flushing = true;
                    break (Taken { batch: b.force_take(), expired: Vec::new() }, now);
                }
                // Idleness is read under the batcher lock, which a worker
                // going idle takes to wake us: no wake-up is lost.
                let t = b.take_batch(now, any_idle(&shared));
                if !t.batch.is_empty() || !t.expired.is_empty() {
                    break (t, now);
                }
                // Every shard is busy (or nothing is queued): sleep to the
                // deadline, capped so virtual-clock tests (where wall
                // sleeps don't advance "now") still poll.
                let wait_ns = match b.next_deadline() {
                    Some(dl) => dl.saturating_sub(now).clamp(100_000, 5_000_000),
                    None => 50_000_000,
                };
                b = shared
                    .dispatch_cv
                    .wait_timeout(b, Duration::from_nanos(wait_ns))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        // Queue sheds: the 504s are owed *now*, before any dispatch.
        time_out_expired(&mut taken.expired, now);
        let mut batch = taken.batch;
        if batch.is_empty() {
            if flushing {
                break;
            }
            continue;
        }
        lowino_trace::instant("serve/batch_occupancy", batch.len() as u64);
        let mut order = Vec::new();
        'send: loop {
            pick_order(&shared, rr, &mut order);
            if order.is_empty() {
                // No live worker. Permanently dead (or shutting down
                // with nothing coming back): drop the tickets — 503.
                // Otherwise the supervisor is mid-restart — put the batch
                // back (ids intact) and retry shortly.
                if shared.all_dead() || shared.shutdown.load(Ordering::Acquire) {
                    drop(batch);
                } else {
                    shared
                        .batcher
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .requeue_front(batch);
                    std::thread::sleep(Duration::from_millis(1));
                }
                continue 'outer;
            }
            rr = rr.wrapping_add(1);
            // Non-blocking bounded sends, cheapest shard first. A full
            // or just-died shard hands the batch back and the next one
            // is tried — one unresponsive worker (wedged but not yet
            // detected) must never stall the dispatch loop for the
            // survivors' traffic. Only when *every* live mailbox is at
            // cap do we wait: that is genuine backpressure, and the
            // admission queue upstream is what turns it into 503s.
            for &idx in &order {
                match shared.slots[idx].try_send(batch, shared.cfg.shard_queue) {
                    Ok(()) => break 'send,
                    Err(b) => batch = b,
                }
            }
            // Stalled on backpressure — but the 504s owed elsewhere
            // don't stop being owed. Shed what has expired in the
            // admission queue and in the batch in hand, so a stall
            // delays dispatch, never deadline replies (a late 504 also
            // blocks that client's connection, compounding the stall
            // into its later requests).
            let now = shared.clock.now_ns();
            let mut queue_expired = shared
                .batcher
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .shed_expired(now);
            time_out_expired(&mut queue_expired, now);
            time_out_expired(&mut batch, now);
            if batch.is_empty() {
                continue 'outer;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// Steal a gone worker's in-flight batch and queued mailbox, and give
/// the requests their future: replay through the batcher (ids and FIFO
/// order intact), or — during shutdown, when nothing will come back up —
/// drop their tickets (503).
fn steal_and_replay(shared: &Shared, idx: usize, shutting_down: bool) {
    let slot = &shared.slots[idx];
    let (active, queued) = slot.steal_work();
    let pending: Batch = active.into_iter().chain(queued).flatten().collect();
    if pending.is_empty() {
        return;
    }
    slot.count_replayed(pending.len() as u64);
    if !shutting_down {
        shared
            .batcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .requeue_front(pending);
        shared.dispatch_cv.notify_all();
    }
}

/// After a death or abandonment: schedule the respawn (exponential
/// backoff) or declare the shard `Dead` when the budget is spent.
fn schedule_or_give_up(shared: &Shared, idx: usize, now: u64) {
    let slot = &shared.slots[idx];
    if slot.restarts() >= shared.cfg.max_restarts {
        slot.set_state(ShardState::Dead);
        shared.log_event(idx, SupervisorEventKind::GaveUp, now);
        // Wake the dispatcher: if this was the last shard, waiting
        // batches must be answered 503, not parked forever.
        shared.dispatch_cv.notify_all();
    } else {
        let backoff = backoff_ns(shared.cfg.restart_backoff_ns, slot.restarts(), BACKOFF_CAP_NS);
        slot.set_next_restart_at_ns(now.saturating_add(backoff));
        slot.set_state(ShardState::Restarting);
    }
}

/// The supervisor: wall-paced detection loop reading clock-stamped
/// heartbeats, plus the brownout controller.
fn supervisor_loop<M, F>(shared: Arc<Shared>, factory: Arc<F>)
where
    M: BatchModel + 'static,
    F: Fn(usize) -> M + Send + Sync + 'static,
{
    let cfg = &shared.cfg;
    let mut brownout = BrownoutPolicy::new(cfg.brownout, cfg.max_batch, cfg.max_delay_ns);
    // One rung-0 instant up front so a traced healthy run still shows
    // the controller existed.
    lowino_trace::instant("serve/brownout", 0);
    let n = shared.slots.len();
    let mut last_progress: Vec<u64> = shared.slots.iter().map(|s| s.progress()).collect();
    let mut stagnant: Vec<u32> = vec![0; n];
    // Warm-up grace: a respawned worker rebuilds its model before it can
    // heartbeat, which may take longer than `wedge_timeout` — and the
    // dispatcher may already have queued work on it. Until the worker's
    // first own beat moves the progress counter past the spawn stamp,
    // the wedge detector stands down (death detection and the shutdown
    // wall-fallback still apply). Initial spawns don't need this: the
    // dims handshake blocks serving until every model is built.
    let mut spawn_progress: Vec<Option<u64>> = vec![None; n];
    loop {
        {
            let stop = shared.sup_stop.lock().unwrap_or_else(|e| e.into_inner());
            if *stop {
                break;
            }
            let _ = shared.sup_cv.wait_timeout(stop, SUPERVISOR_TICK);
        }
        let now = shared.clock.now_ns();
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        for idx in 0..n {
            let slot = &shared.slots[idx];
            let state = slot.state();
            if shutting_down && !slot.is_alive() {
                // Nothing respawns during shutdown; anything stranded
                // in this mailbox gets its 503 now.
                steal_and_replay(&shared, idx, true);
                continue;
            }
            if slot.is_alive() {
                if state != ShardState::Healthy {
                    continue;
                }
                // Wedge detection: work pending but no heartbeat for
                // wedge_timeout (clock domain — virtual in tests). At
                // shutdown a frozen virtual clock can't advance, so a
                // wall-tick stagnation fallback keeps shutdown live.
                let pending = slot.has_active() || slot.depth() > 0;
                let progress = slot.progress();
                let stalled = progress == last_progress[idx];
                if !stalled {
                    last_progress[idx] = progress;
                    stagnant[idx] = 0;
                } else if pending {
                    stagnant[idx] = stagnant[idx].saturating_add(1);
                }
                let warming = match spawn_progress[idx] {
                    Some(sp) if progress == sp => true,
                    Some(_) => {
                        spawn_progress[idx] = None; // first beat: warmed up
                        false
                    }
                    None => false,
                };
                let stale_clock = !warming
                    && pending
                    && now.saturating_sub(slot.last_beat_ns()) > cfg.wedge_timeout_ns;
                let stale_wall = shutting_down && pending && stagnant[idx] > SHUTDOWN_STAGNANT_TICKS;
                if stale_clock || stale_wall {
                    slot.set_state(ShardState::Wedged);
                    shared.log_event(idx, SupervisorEventKind::WedgeDetected, now);
                    // Abandon: stale-epoch the worker, take the flag
                    // back, detach the thread (it may never return),
                    // steal its work for replay.
                    slot.bump_epoch();
                    slot.clear_alive();
                    let _ = slot.handle().take();
                    steal_and_replay(&shared, idx, shutting_down);
                    if shutting_down {
                        slot.set_state(ShardState::Restarting);
                    } else {
                        schedule_or_give_up(&shared, idx, now);
                    }
                }
            } else {
                match state {
                    ShardState::Healthy => {
                        // Unexpected worker death (spawn fault, panic).
                        shared.log_event(idx, SupervisorEventKind::DeathDetected, now);
                        slot.bump_epoch();
                        if let Some(h) = slot.handle().take() {
                            let _ = h.join();
                        }
                        steal_and_replay(&shared, idx, false);
                        schedule_or_give_up(&shared, idx, now);
                    }
                    ShardState::Restarting => {
                        if now >= slot.next_restart_at_ns() {
                            slot.count_restart();
                            match spawn_shard_worker(&shared, &factory, idx, None) {
                                Ok(()) => {
                                    slot.set_state(ShardState::Healthy);
                                    slot.beat(now);
                                    // Stamp *after* the beat above so the
                                    // grace lifts only on the worker's
                                    // own first heartbeat.
                                    spawn_progress[idx] = Some(slot.progress());
                                    shared.log_event(
                                        idx,
                                        SupervisorEventKind::Respawned,
                                        now,
                                    );
                                    lowino_trace::instant("serve/shard_restart", 1);
                                    shared.dispatch_cv.notify_all();
                                }
                                Err(_) => {
                                    // OS-level spawn failure: burn a
                                    // restart and back off again.
                                    schedule_or_give_up(&shared, idx, now);
                                }
                            }
                        }
                    }
                    ShardState::Wedged | ShardState::Dead => {}
                }
            }
        }
        // Brownout tick: queue pressure and p99-vs-deadline headroom.
        let depth = {
            let b = shared.batcher.lock().unwrap_or_else(|e| e.into_inner());
            b.depth()
        };
        let step = brownout.tick(BrownoutInput {
            depth,
            queue_cap: cfg.queue_cap,
            p99_ns: shared.latency_p99(),
            deadline_ns: Some(cfg.default_deadline_ns).filter(|&d| d != NO_DEADLINE),
        });
        if step != BrownoutStep::Hold {
            let rung = brownout.rung();
            shared.brownout_rung.store(rung as u64, Ordering::Release);
            lowino_trace::instant("serve/brownout", rung as u64);
            let (max_batch, max_delay_ns) = brownout.limits();
            shared
                .batcher
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .set_limits(max_batch, max_delay_ns);
            shared.dispatch_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_testkit::{Gate, VirtualClock};

    /// Identity-ish model: output = [sum of inputs]; optional failure.
    struct EchoModel {
        il: usize,
        fail: bool,
    }

    impl BatchModel for EchoModel {
        fn input_len(&self) -> usize {
            self.il
        }
        fn output_len(&self) -> usize {
            1
        }
        fn max_batch(&self) -> usize {
            4
        }
        fn infer(
            &mut self,
            inputs: &[f32],
            count: usize,
            outputs: &mut [f32],
        ) -> Result<(), String> {
            if self.fail {
                return Err("deliberate".into());
            }
            for i in 0..count {
                outputs[i] = inputs[i * self.il..(i + 1) * self.il].iter().sum();
            }
            Ok(())
        }
    }

    fn post_infer(conn: &mut BufReader<DuplexStream>, vals: &[f32]) -> http::Response {
        post_infer_with(conn, vals, None)
    }

    fn post_infer_with(
        conn: &mut BufReader<DuplexStream>,
        vals: &[f32],
        deadline_us: Option<u64>,
    ) -> http::Response {
        let mut body = Vec::new();
        for v in vals {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let deadline = match deadline_us {
            Some(us) => format!("X-Lowino-Deadline-Us: {us}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "POST /infer HTTP/1.1\r\n{deadline}Content-Length: {}\r\n\r\n",
            body.len()
        );
        conn.get_mut().write_all(head.as_bytes()).unwrap();
        conn.get_mut().write_all(&body).unwrap();
        http::read_response(conn).unwrap()
    }

    /// [`EchoModel`] (`il` 2) whose every `infer` passes a [`Gate`] first:
    /// a held call keeps its shard busy.
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
            4
        }
        fn infer(
            &mut self,
            inputs: &[f32],
            count: usize,
            outputs: &mut [f32],
        ) -> Result<(), String> {
            self.gate.pass();
            EchoModel { il: 2, fail: false }.infer(inputs, count, outputs)
        }
    }

    /// One shard under a frozen virtual clock with a coalescing deadline
    /// it never reaches: only an idle shard or the size bound can release
    /// a batch.
    fn frozen_server<M: BatchModel + 'static>(
        max_batch: usize,
        factory: impl Fn(usize) -> M + Send + Sync + 'static,
    ) -> (Server, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let cfg = ServeConfig { max_batch, max_delay_ns: 60_000_000_000, ..ServeConfig::default() };
        let server = Server::start_with_clock(cfg, factory, clock.clone()).unwrap();
        (server, clock)
    }

    /// `post_infer` on a fresh connection from its own thread; the reply
    /// arrives on the returned channel.
    fn spawn_post(server: &Server, vals: Vec<f32>) -> Receiver<http::Response> {
        let (tx, rx) = mpsc::channel();
        let mut conn = BufReader::new(server.connect());
        std::thread::spawn(move || {
            let _ = tx.send(post_infer(&mut conn, &vals));
        });
        rx
    }

    /// A reply within a generous wall bound (a request held for a
    /// deadline the frozen clock never reaches would never come).
    fn reply(rx: &Receiver<http::Response>, what: &str) -> http::Response {
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("no reply: {what}"))
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn lone_request_to_an_idle_shard_is_answered_with_the_clock_frozen() {
        let (server, clock) = frozen_server(4, |_| EchoModel { il: 2, fail: false });
        let r = reply(&spawn_post(&server, vec![1.0, 2.0]), "a lone request to an idle shard");
        assert_eq!(r.status, 200);
        assert_eq!(f32::from_le_bytes([r.body[0], r.body[1], r.body[2], r.body[3]]), 3.0);
        assert_eq!(clock.now_ns(), 0, "served without waiting out max_delay");
        let snap = server.shutdown();
        assert_eq!((snap.batches, snap.dispatched, snap.completed), (1, 1, 1));
    }

    #[test]
    fn busy_shard_coalesces_max_batch_requests_into_one_batch() {
        let gate = Arc::new(Gate::new());
        let g = Arc::clone(&gate);
        let (server, clock) = frozen_server(3, move |_| GatedEcho { gate: Arc::clone(&g) });
        let holder = spawn_post(&server, vec![0.5, 0.5]);
        wait_until("the holder inside the model", || gate.arrived() == 1);
        let queued: Vec<_> = (0..3).map(|i| spawn_post(&server, vec![i as f32, 1.0])).collect();
        wait_until("the size-bound batch", || server.stats().batches == 2);

        let mut conn = BufReader::new(server.connect());
        conn.get_mut().write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        let json = String::from_utf8(http::read_response(&mut conn).unwrap().body).unwrap();
        for field in ["\"batches\":2", "\"dispatched\":4", "\"mean_occupancy\":2.000"] {
            assert!(json.contains(field), "{field} in {json}");
        }
        assert_eq!(server.stats().per_shard[0].queue_depth, 1, "one batch behind the holder");

        gate.allow(usize::MAX);
        assert_eq!(reply(&holder, "the holder").status, 200);
        for (i, rx) in queued.iter().enumerate() {
            let r = reply(rx, "a coalesced request");
            assert_eq!(r.status, 200);
            assert_eq!(
                f32::from_le_bytes([r.body[0], r.body[1], r.body[2], r.body[3]]),
                i as f32 + 1.0
            );
        }
        assert_eq!(clock.now_ns(), 0);
        drop(conn);
        let snap = server.shutdown();
        assert_eq!((snap.batches, snap.completed), (2, 4));
        assert_eq!(snap.per_shard[0].batches, 2);
    }

    #[test]
    fn opening_the_gate_dispatches_the_partial_batch_behind_it_with_the_clock_frozen() {
        let gate = Arc::new(Gate::new());
        let g = Arc::clone(&gate);
        let (server, clock) = frozen_server(4, move |_| GatedEcho { gate: Arc::clone(&g) });
        let holder = spawn_post(&server, vec![0.5, 0.5]);
        wait_until("the holder inside the model", || gate.arrived() == 1);
        let queued: Vec<_> = (0..2).map(|i| spawn_post(&server, vec![i as f32, 2.0])).collect();
        wait_until("two requests queued", || server.stats().queue_depth == 2);
        std::thread::sleep(Duration::from_millis(20));
        let s = server.stats();
        assert_eq!((s.queue_depth, s.batches), (2, 1), "a busy shard: the partial batch waits");

        gate.allow(usize::MAX);
        assert_eq!(reply(&holder, "the holder").status, 200);
        for rx in &queued {
            assert_eq!(reply(rx, "the partial batch behind the holder").status, 200);
        }
        assert_eq!(clock.now_ns(), 0, "dispatched when the shard went idle, not at max_delay");
        let snap = server.shutdown();
        assert_eq!((snap.batches, snap.dispatched), (2, 3), "the two queued went as one batch");
    }

    #[test]
    fn serves_infer_stats_and_errors_over_duplex() {
        let cfg = ServeConfig {
            shards: 2,
            max_batch: 2,
            max_delay_ns: 500_000,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, |_| EchoModel { il: 3, fail: false }).unwrap();
        assert_eq!(server.dims(), (3, 1));
        let mut conn = BufReader::new(server.connect());
        let r = post_infer(&mut conn, &[1.0, 2.0, 3.5]);
        assert_eq!(r.status, 200);
        assert_eq!(r.body.len(), 4);
        let sum = f32::from_le_bytes([r.body[0], r.body[1], r.body[2], r.body[3]]);
        assert_eq!(sum, 6.5);

        // Wrong body size → 400, connection stays usable.
        conn.get_mut()
            .write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap();
        assert_eq!(http::read_response(&mut conn).unwrap().status, 400);

        // A non-finite value anywhere in the body → 400 at admission: the
        // model runs no batch for it, and the connection stays usable.
        let r = post_infer(&mut conn, &[1.0, f32::NAN, 3.5]);
        assert_eq!(r.status, 400);

        // /stats parses and reflects the completed request plus the new
        // supervision fields.
        conn.get_mut()
            .write_all(b"GET /stats HTTP/1.1\r\n\r\n")
            .unwrap();
        let stats = http::read_response(&mut conn).unwrap();
        assert_eq!(stats.status, 200);
        let json = String::from_utf8(stats.body).unwrap();
        lowino_testkit::validate_json(&json).unwrap();
        assert!(json.contains("\"completed\":1"), "{json}");
        assert!(json.contains("\"state\":\"healthy\""), "{json}");
        assert!(json.contains("\"brownout_rung\":0"), "{json}");
        assert!(json.contains("\"timed_out\":0"), "{json}");

        // Unknown path → 404; /healthz → 200 while shards live.
        conn.get_mut()
            .write_all(b"GET /nope HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(http::read_response(&mut conn).unwrap().status, 404);
        assert_eq!(http::read_response(&mut conn).unwrap().status, 200);

        drop(conn);
        let snap = server.shutdown();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.conn_panics, 0);
        assert_eq!(snap.http_errors, 3, "400 + 400 + 404");
        assert_eq!((snap.accepted, snap.batches), (1, 1), "the NaN body never reached a shard");
        assert_eq!(
            snap.accepted,
            snap.completed + snap.failed + snap.timed_out + snap.unavailable
        );
    }

    #[test]
    fn inference_failure_maps_to_500_not_a_hang() {
        let server = Server::start(
            ServeConfig { max_delay_ns: 100_000, ..ServeConfig::default() },
            |_| EchoModel { il: 2, fail: true },
        )
        .unwrap();
        let mut conn = BufReader::new(server.connect());
        let r = post_infer(&mut conn, &[1.0, 2.0]);
        assert_eq!(r.status, 500);
        drop(conn);
        let snap = server.shutdown();
        assert_eq!((snap.completed, snap.failed), (0, 1));
    }

    #[test]
    fn zero_deadline_is_shed_at_admission_with_504() {
        let server = Server::start(
            ServeConfig { max_delay_ns: 100_000, ..ServeConfig::default() },
            |_| EchoModel { il: 2, fail: false },
        )
        .unwrap();
        let mut conn = BufReader::new(server.connect());
        let r = post_infer_with(&mut conn, &[1.0, 2.0], Some(0));
        assert_eq!(r.status, 504, "expired on arrival");
        // A generous deadline still completes.
        let r = post_infer_with(&mut conn, &[1.0, 2.0], Some(5_000_000));
        assert_eq!(r.status, 200);
        drop(conn);
        let snap = server.shutdown();
        assert_eq!((snap.completed, snap.deadline_rejects), (1, 1));
        assert_eq!(snap.timed_out, 0, "admission sheds are not timed_out");
        assert_eq!(snap.accepted, 1, "the shed request never entered the queue");
        assert_eq!(snap.dispatched, 1, "no shard work for the shed request");
        assert_eq!(
            snap.accepted,
            snap.completed + snap.failed + snap.timed_out + snap.unavailable,
            "the accepted identity holds even with admission sheds"
        );
    }

    #[test]
    fn dropped_ticket_is_one_503_counted_once() {
        let server = Server::start(ServeConfig::default(), |_| EchoModel { il: 2, fail: false })
            .unwrap();
        let shared = &server.shared;
        let (ticket, rx) = Ticket::new();
        drop(ticket); // never answered: no shard could run it
        let mut wire = Vec::new();
        assert!(respond(shared, &mut wire, rx, shared.clock.now_ns(), true));
        let mut wire = &wire[..];
        assert_eq!(http::read_response(&mut wire).unwrap().status, 503);
        assert!(wire.is_empty(), "exactly one response on the wire");
        let snap = server.shutdown();
        assert_eq!(snap.unavailable, 1);
        assert_eq!((snap.completed, snap.failed, snap.timed_out), (0, 0, 0));
    }

    #[test]
    fn mismatched_shard_factories_fail_startup() {
        let res = Server::start(
            ServeConfig { shards: 2, ..ServeConfig::default() },
            |i| EchoModel { il: 2 + i, fail: false },
        );
        match res {
            Err(err) => assert!(err.contains("disagree"), "{err}"),
            Ok(_) => panic!("shards disagreeing on input_len must fail startup"),
        }
    }

    #[test]
    fn oversized_max_batch_fails_startup() {
        let res = Server::start(
            ServeConfig { max_batch: 9, ..ServeConfig::default() },
            |_| EchoModel { il: 2, fail: false },
        );
        match res {
            Err(err) => assert!(err.contains("exceeds"), "{err}"),
            Ok(_) => panic!("max_batch beyond the model's capacity must fail startup"),
        }
    }

    #[test]
    fn serves_over_real_tcp_loopback() {
        let mut server = Server::start(
            ServeConfig { max_delay_ns: 100_000, ..ServeConfig::default() },
            |_| EchoModel { il: 2, fail: false },
        )
        .unwrap();
        let addr = server.bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = BufReader::new(stream);
        let mut body = Vec::new();
        for v in [2.0f32, 3.0] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        conn.get_mut()
            .write_all(
                format!("POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
                    .as_bytes(),
            )
            .unwrap();
        conn.get_mut().write_all(&body).unwrap();
        let r = http::read_response(&mut conn).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            f32::from_le_bytes([r.body[0], r.body[1], r.body[2], r.body[3]]),
            5.0
        );
        drop(conn);
        server.shutdown();
    }
}
