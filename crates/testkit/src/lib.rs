//! `lowino-testkit` — the in-tree test substrate that lets the whole
//! workspace build and test **hermetically**: no registry, no network, no
//! third-party crates.
//!
//! The pieces, each replacing an external dev-dependency the build
//! environment cannot fetch:
//!
//! * [`rng`] — deterministic xoshiro256++ PRNG (replaces `rand`) for
//!   synthetic data, weight init and shuffles;
//! * [`prop`] — a property-testing harness with per-case seeds, greedy
//!   shrinking and seed-replay via `LOWINO_PROP_SEED` (replaces
//!   `proptest`);
//! * [`bench`] — a warmup + median-of-samples micro-bench timer with
//!   JSON-line output (replaces `criterion`);
//! * [`json`] — a strict JSON validity checker (replaces `serde_json` for
//!   the "is this emitted artifact well-formed?" assertions);
//! * [`faults`] — the fault-injection registry: named sites compiled into
//!   the production crates (zero-cost while disarmed), armed by tests or
//!   `LOWINO_FAULT` to prove the graceful-degradation paths;
//! * [`alloc`] — a counting global allocator whose armed sections are
//!   serialised across a test binary (the zero-steady-state-allocation
//!   audits);
//! * [`clock`] — virtual time ([`clock::VirtualClock`]) and a seeded
//!   Poisson arrival stream ([`clock::PoissonArrivals`]) so the serving
//!   stack's deadline/batching state machine is testable deterministically.
//!
//! Correctness of the numeric kernels is LoWino's whole claim (bit-exact
//! integer semantics across SIMD tiers, bounded Winograd-domain
//! quantization error), so the substrate that *verifies* those claims must
//! itself be deterministic and always runnable — hence first-party and
//! dependency-free.

pub mod alloc;
pub mod bench;
pub mod clock;
pub mod faults;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::{black_box, percentile_ns, BenchGroup, LoadStats, Stats};
pub use clock::{PoissonArrivals, VirtualClock};
pub use json::validate_json;
pub use prop::{one_of, run_property, vec_of, Config, Strategy};
pub use rng::{splitmix64, Rng};
