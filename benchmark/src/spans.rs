//! The traced run's spans. The ledger opens its own spans through
//! `lowino-trace` around every public call it makes (workload → op → layer
//! call, the op or request id as the span argument), keeps them in the
//! recorder's in-memory rings, and reads the per-layer time table back out
//! of those rings — the same events that land in
//! `benchmark/out/<workload>.trace.json`.
//!
//! The rings keep the newest 64 Ki events per thread, so closed-loop
//! workloads record in chunks of a few ops: reset, record, collect. The
//! file written at exit holds the last chunk.

use std::collections::BTreeMap;
use std::path::PathBuf;

use lowino_trace::EventKind;

pub const WORKLOAD: &str = "ledger/workload";
pub const OP: &str = "ledger/op";
pub const CONV_EXECUTE: &str = "ledger/conv.execute";
pub const GRAPH_EXECUTE: &str = "ledger/graph.execute";
pub const MODEL_INFER: &str = "ledger/serve.model_infer";
pub const REQUEST: &str = "ledger/serve.request";

/// Durations of the ledger's own spans, keyed by `(name, argument)`.
#[derive(Default)]
pub struct SpanTable {
    by_key: BTreeMap<(&'static str, u64), Vec<u64>>,
}

impl SpanTable {
    /// Start a recording stretch: enable the recorder and drop what the
    /// rings hold. Callers make sure no program thread is mid-span.
    pub fn begin_chunk() {
        lowino_trace::set_enabled(true);
        lowino_trace::reset();
    }

    /// Read every completed `ledger/*` span out of the rings into the
    /// table. Spans are matched per thread with a stack; an edge whose
    /// partner fell off the ring is skipped.
    pub fn collect(&mut self) {
        for thread in lowino_trace::drain() {
            let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
            for ev in &thread.events {
                match ev.kind {
                    EventKind::Begin => stack.push((ev.name, ev.arg, ev.ts_ns)),
                    EventKind::End => {
                        if let Some((name, arg, begin)) = stack.pop() {
                            if name == ev.name && name.starts_with("ledger/") {
                                let ns = ev.ts_ns.saturating_sub(begin);
                                self.by_key.entry((name, arg)).or_default().push(ns);
                            }
                        }
                    }
                    EventKind::Counter | EventKind::Instant => {}
                }
            }
        }
    }

    /// Every duration recorded under `name`, whatever the argument.
    pub fn all(&self, name: &str) -> Vec<u64> {
        self.by_key
            .iter()
            .filter(|((n, _), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Every duration recorded under `(name, arg)`.
    pub fn get(&self, name: &'static str, arg: u64) -> &[u64] {
        self.by_key.get(&(name, arg)).map_or(&[], Vec::as_slice)
    }

    /// Total nanoseconds recorded under `(name, arg)`.
    pub fn total_ns(&self, name: &'static str, arg: u64) -> u64 {
        self.get(name, arg).iter().sum()
    }
}

/// Stop recording, write what the rings hold as a chrome-trace document to
/// `benchmark/out/<workload>.trace.json`, and validate it with the in-tree
/// JSON validator. Returns whether the file was written and is valid.
pub fn write_trace_file(workload: &str) -> bool {
    lowino_trace::set_enabled(false);
    let json = lowino_trace::chrome_trace_json();
    let dir = PathBuf::from("benchmark/out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json));
    match (written, lowino_testkit::validate_json(&json)) {
        (Ok(()), Ok(())) => {
            eprintln!(
                "ledger: trace written to {} ({} bytes)",
                path.display(),
                json.len()
            );
            true
        }
        (Err(e), _) => {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            false
        }
        (_, Err(e)) => {
            eprintln!("ledger: {} is not valid JSON: {e}", path.display());
            false
        }
    }
}
