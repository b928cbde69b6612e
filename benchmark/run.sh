#!/usr/bin/env bash
# Build the ledger and run it. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--runs N]
#       the whole ledger (every workload untraced, then traced) as one
#       JSON document on stdout
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object
#   benchmark/run.sh --spec
#       print BENCHMARK.json
#
# Builds offline into $CARGO_TARGET_DIR, or into the repository's own
# target/ (shared with the root workspace) when that is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lowino-ledger" "$@"
