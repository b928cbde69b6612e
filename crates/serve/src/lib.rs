//! `lowino-serve` — a batched, self-healing inference server over the
//! whole-model graph engine, std-only like the rest of the workspace.
//!
//! The server answers `POST /infer` requests (raw little-endian `f32`
//! tensors) by dispatching them to one of N engine *shards*, each a
//! [`lowino_nn::CompiledGraph`] owning its own thread pool. A request
//! that finds a shard idle goes at once; while every shard is busy,
//! concurrent requests are **coalesced** into batches — up to a size
//! bound or a deadline, whichever comes first. Batching is where the
//! paper's Winograd wins compound: tile counts per fork-join grow with
//! batch size, amortizing the barrier costs that dominate small shapes.
//!
//! Architecture (one type per concern, composed in [`server`]):
//!
//! * [`batcher`] — the coalescing/deadline/backpressure state machine.
//!   **Pure**: it never reads a clock or touches a socket; every
//!   transition takes an explicit `now_ns`, and a release takes whether
//!   a shard is idle, so the property tests drive it under a virtual
//!   clock with seeded Poisson arrivals. Dispatch is work-conserving: an
//!   idle shard gets what is queued (up to `max_batch`) at once;
//!   `max_delay_ns` bounds the wait for co-riders only while every shard
//!   is busy. Requests carry absolute deadlines: expired ones are
//!   **shed** (never dispatched), coalescing stops early when a member
//!   nears expiry, and stolen batches can be re-enqueued at the front
//!   with ids intact.
//! * [`http`] — a minimal, hardened HTTP/1.1 subset: request parsing
//!   with hard limits (line length, header count, body size), keep-alive
//!   and pipelining, the `X-Lowino-Deadline-Us` request header, and
//!   short-write-proof response writing (malformed input maps to clean
//!   4xx responses, broken pipes to errors rather than panics).
//! * [`transport`] — an in-memory duplex byte stream implementing
//!   `Read + Write`, so the full server (threads and all) is testable
//!   hermetically without TCP; the real listener speaks the same code
//!   path over `TcpStream`.
//! * [`model`] — the [`model::BatchModel`] trait the shards execute, and
//!   [`model::GraphModel`] adapting a compiled graph to it.
//! * [`supervisor`] — the shard slot, sole owner of one shard's state:
//!   its bounded batch mailbox (`try_send` never waits) and whether its
//!   worker holds a batch (so idleness is exact), heartbeats, the
//!   epoch-guarded *active batch* cell that makes steal-vs-reply
//!   exactly-once, restart backoff and its `/stats` counters.
//! * [`brownout`] — the pure hysteretic overload controller stepping
//!   `max_batch`/`max_delay_ns` down under queue or latency pressure
//!   (and nothing else: the models' health checks cost nothing to keep).
//! * [`server`] — the threaded composition: connection handlers feed the
//!   shared batcher, a dispatcher flushes ready batches to the
//!   shortest-backlog live shard (a worker going idle wakes it), a supervisor detects dead/wedged
//!   workers, steals their in-flight work for exactly-once replay and
//!   respawns them with exponential backoff; admission control returns
//!   503 when the bounded queue overflows, expired requests get 504
//!   before costing shard work, `/healthz` turns 503 when every shard is
//!   dead, and `/stats` reports the full picture as JSON. An accepted
//!   request's reply is a consume-once ticket; a ticket dropped
//!   unanswered is its 503.
//! * [`clock`] — the `Clock` abstraction ([`clock::SystemClock`] in
//!   production, the testkit `VirtualClock` in tests).
//!
//! Tracing: `serve/request` spans per handled request, `serve/batch`
//! spans (arg = occupancy) per shard execution, `serve/queue_depth` and
//! `serve/batch_occupancy` instants, `serve/shard_restart`,
//! `serve/deadline_shed` and `serve/brownout` (arg = rung) instants, a
//! `serve/requests` counter.

pub mod batcher;
pub mod brownout;
pub mod clock;
pub mod http;
pub mod model;
pub mod server;
pub mod supervisor;
pub mod transport;

pub use batcher::{BatchConfig, BatcherCore, BatcherStats, Pending, Taken, NO_DEADLINE};
pub use brownout::{BrownoutConfig, BrownoutInput, BrownoutPolicy, BrownoutStep};
pub use clock::{Clock, SystemClock};
pub use http::{HttpLimits, Request, Response};
pub use model::{BatchModel, GraphModel};
pub use server::{
    ServeConfig, Server, ShardSnapshot, StatsSnapshot, SupervisorEvent, SupervisorEventKind,
};
pub use supervisor::{backoff_ns, ShardState};
pub use transport::{duplex_pair, DuplexStream};
