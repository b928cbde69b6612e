#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# The whole workspace is hermetic: every dependency is an in-tree path
# crate, so each step runs with --offline against an empty registry. Run
# from anywhere; the script cds to the repo root.
#
#   ci/check.sh            # build + test + clippy
#   ci/check.sh --no-lint  # skip the clippy step
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint=1
if [[ "${1:-}" == "--no-lint" ]]; then
    run_lint=0
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

# The generated transform kernels (crates/winograd/src/kernels.rs) are
# checked in; the exact-rational codelet generator is their source of
# truth. Fail on any drift between the two (regenerate with
# `cargo run -p lowino-winograd --bin gen_kernels`).
echo "==> generated kernels up to date (gen_kernels --check)"
cargo run -q --release --offline -p lowino-winograd --bin gen_kernels -- --check

echo "==> cargo test --offline"
cargo test -q --offline --workspace

# The zero-steady-state-allocation audits count allocations process-wide,
# so their tests serialise on `lowino_testkit::alloc::audit()`. Prove the
# count does not depend on how many harness threads the host offers.
for threads in 1 8; do
    echo "==> allocation audits (--test-threads=$threads)"
    cargo test -q --offline -p lowino-conv --test steady_state_alloc -- --test-threads="$threads"
    cargo test -q --offline -p lowino-nn --test graph_alloc -- --test-threads="$threads"
    # LoWino's two schedules against each other: its fault-injection and
    # trace-counter cases arm process-global state behind a reader/writer
    # gate, which must hold serially and with more harness threads than
    # cores alike.
    echo "==> LoWino staged vs depth-first (--test-threads=$threads)"
    cargo test -q --offline -p lowino-conv --test lowino_chained -- --test-threads="$threads"
done

# Re-run the suite pinned to each narrower vector tier the host supports
# (LOWINO_FORCE_TIER caps dispatch below the native probe). The generated
# transform kernels, the dpbusd kernels and the quantize epilogues all
# dispatch on the tier, so every per-tier bitwise-equivalence property
# must hold on every tier, not just the widest one. detect() rejects
# tiers above the native level, so probe availability first with the
# print_tier example (exits non-zero on an unsupported forced tier).
for forced in scalar avx2 avx512vnni; do
    if LOWINO_FORCE_TIER="$forced" cargo run -q --release --offline -p lowino --example print_tier >/dev/null 2>&1; then
        echo "==> cargo test --offline (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline --workspace
        # Re-assert the whole-model differential battery by name: the graph
        # engine must stay bitwise identical to the per-layer path on every
        # tier (the workspace pass above runs it too; the explicit run makes
        # a tier-specific regression name itself in the log).
        echo "==> graph identity (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino --test graph_identity
        # The pipelined GEMM driver (double-buffered packing + prefetch)
        # must stay exactly equal to the unpacked reference on every tier:
        # the packed-block walk, ragged tails, single-block degenerate
        # shapes and scratch reuse are all asserted by name per tier.
        echo "==> gemm pipeline identity (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino-gemm --test pipeline
        # LoWino's in-place transform phases (interior tiles read and
        # stored straight in the blocked images, on the generated kernels)
        # must equal the gather/scatter reference bit for bit on every
        # tier, as must every kernel against the interpreted codelets.
        echo "==> LoWino in-place + kernel identity (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino-conv --test lowino_in_place
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino-winograd --test tape_equivalence
        # The depth-first schedule (tile blocks through ① → ② → ③ in one
        # worker's L2) must equal the staged one and the three-fork-join
        # reference bit for bit on every tier: the block GEMM entry point
        # and the cache-allocating store kind dispatch on it too.
        echo "==> LoWino staged vs depth-first identity (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino-conv --test lowino_chained
        # The four Winograd schemes are one executor: every scheme's output
        # must still hash to what the four separate executors produced
        # (pinned in the battery), with post-ops fused and saturation
        # tallied in-phase, when the tier is capped from outside too.
        echo "==> Winograd scheme battery (LOWINO_FORCE_TIER=$forced)"
        LOWINO_FORCE_TIER="$forced" cargo test -q --offline -p lowino-conv --test winograd_schemes
    else
        echo "==> tier $forced not supported on this host; skipping forced-tier pass"
    fi
done

# Smoke-run the schedule bench: proves the bench targets build and that
# both the fused single-fork-join path and the retained three-fork-join
# reference path execute end to end (seconds-long smoke configuration).
# Its schedule/* rows run one conv_wide-shaped and one model-stem-shaped
# LoWino layer on a cache model without an L2 (staged) and on the detected
# one (depth-first where the host's L2 holds the layer; the row is named
# after the schedule that ran). Both rows of both layers must be there;
# which schedule a given host picks is the chain-rule table test's job.
echo "==> bench smoke (forkjoin, LOWINO_BENCH_SMOKE=1)"
forkjoin_out="$(LOWINO_BENCH_SMOKE=1 cargo bench -q --offline -p lowino-bench --bench forkjoin)"
echo "$forkjoin_out"
for layer in wide128x40 stem3x32; do
    grep -q "^schedule/$layer/t2/staged" <<<"$forkjoin_out"
    [[ "$(grep -c "^schedule/$layer/t2/" <<<"$forkjoin_out")" == 2 ]]
done

# Smoke-run the transform-codelet bench: generic run-time driver vs
# generated kernel for every F(m,3) matrix (a regression to the
# interpreter shows as the two reading the same), interpreted codelet
# executor vs lowered tape, and the fused quantize/dequantize epilogues vs
# their two-pass spellings.
echo "==> bench smoke (transforms, LOWINO_BENCH_SMOKE=1)"
LOWINO_BENCH_SMOKE=1 cargo bench -q --offline -p lowino-bench --bench transforms

# Smoke-run the primitives bench for its whole-GEMM rows: YOLOv3_b's
# F(4,3) stage ② through the one driver on each element type (u8×i8, i16,
# f32). All three rows must be there — a baseline that fell back to a
# private loop would not have one.
echo "==> bench smoke (kernels, LOWINO_BENCH_SMOKE=1)"
kernels_out="$(LOWINO_BENCH_SMOKE=1 cargo bench -q --offline -p lowino-bench --bench kernels)"
echo "$kernels_out"
for elem in u8i8 i16 f32; do
    grep -q "^gemm/$elem/yolo_b_f4 " <<<"$kernels_out"
done

# Fault-injection smoke: run the resilience binary once with the
# pool/phase and wisdom/save sites armed (the layer must demote and keep
# serving within direct-f32 tolerance; the crashed wisdom save must leave
# the previous file loadable) and once disarmed (no demotion, same
# tolerance).
echo "==> fault-injection smoke (LOWINO_FAULT=pool/phase,wisdom/save)"
LOWINO_FAULT=pool/phase,wisdom/save \
    cargo run -q --release --offline -p lowino-bench --bin resilient_smoke
echo "==> fault-injection smoke (disarmed)"
cargo run -q --release --offline -p lowino-bench --bin resilient_smoke

# Trace smoke: re-run the forkjoin smoke with the recorder enabled and
# validate the emitted chrome trace (must exist, be non-empty, be valid
# JSON per the in-tree validator, and contain pool phase spans). The
# pipelined GEMM scheduler must show up too: gemm/pack_ns (packing time
# counter) and gemm/steal (per-worker stolen-chunk instant — an instant
# precisely so it records even on steal-free runs) are load-bearing
# observability and their absence means the pipeline silently fell back.
# The depth-first rows of the same bench emit the GEMM work counters from
# the block entry point.
echo "==> trace smoke (forkjoin, LOWINO_TRACE set)"
trace_tmp="$(mktemp -t lowino-trace-XXXXXX.json)"
trap 'rm -f "$trace_tmp"' EXIT
LOWINO_BENCH_SMOKE=1 LOWINO_TRACE="$trace_tmp" \
    cargo bench -q --offline -p lowino-bench --bench forkjoin
cargo run -q --release --offline -p lowino-bench --bin trace_check -- "$trace_tmp"
grep -q '"gemm/pack_ns"' "$trace_tmp"
grep -q '"gemm/steal"' "$trace_tmp"
grep -q '"pool/steal"' "$trace_tmp"
grep -q '"gemm/dpbusd_macs"' "$trace_tmp"
grep -q '"gemm/panel_bytes"' "$trace_tmp"

# Whole-model smoke: compile MiniResNet into the graph engine and run it
# end to end (one smoke bench cell), traced, and validate the trace — it
# must carry the graph/compile + graph/execute + graph/layer spans and
# the graph/plan_bytes counter alongside the kernel-level spans, and the
# tune/seeded instants of graph/compile resolving every conv's blocking.
echo "==> models bench smoke (graph engine, LOWINO_TRACE set)"
models_trace="$(mktemp -t lowino-models-trace-XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$models_trace"' EXIT
LOWINO_BENCH_SMOKE=1 LOWINO_TRACE="$models_trace" \
    cargo bench -q --offline -p lowino-bench --bench models
cargo run -q --release --offline -p lowino-bench --bin trace_check -- "$models_trace"
grep -q '"graph/execute"' "$models_trace"
grep -q '"graph/layer"' "$models_trace"
grep -q '"graph/plan_bytes"' "$models_trace"
grep -q '"tune/seeded"' "$models_trace"

# Serving smoke, two layers. First the sustained-load bench in its
# seconds-long smoke configuration (seeded Poisson arrivals over
# in-memory duplex streams, LoadStats percentile report, plus the
# kill-loop cell: a shard worker wedged over and over while the
# supervisor detects/steals/respawns and the served p99 is reported
# against the no-fault baseline). Then the serve_smoke binary over a
# real loopback TCP port: batched inference from concurrent clients, a
# malformed request and a wrong-shape body (both must answer 4xx
# without wedging the connection), /healthz and /stats, a mid-batch
# worker wedge that must end in a restart and a replayed 200, an
# expired-on-arrival request that must be shed 504 at admission, and a
# drained shutdown whose accounting must close. The traced run must
# carry the serving observability events — request spans, batch spans
# with occupancy, the queue-depth instants, and the supervision
# instants (shard restarts, deadline sheds, brownout rung changes) —
# alongside the kernel spans, validated by trace_check.
echo "==> serve bench smoke (Poisson load + kill-loop, LOWINO_BENCH_SMOKE=1)"
LOWINO_BENCH_SMOKE=1 cargo bench -q --offline -p lowino-bench --bench serve
echo "==> serve smoke (real TCP loopback, LOWINO_TRACE set)"
serve_trace="$(mktemp -t lowino-serve-trace-XXXXXX.json)"
trap 'rm -f "$trace_tmp" "$models_trace" "$serve_trace"' EXIT
LOWINO_TRACE="$serve_trace" \
    cargo run -q --release --offline -p lowino-bench --bin serve_smoke
cargo run -q --release --offline -p lowino-bench --bin trace_check -- "$serve_trace"
grep -q '"serve/request"' "$serve_trace"
grep -q '"serve/batch"' "$serve_trace"
grep -q '"serve/queue_depth"' "$serve_trace"
grep -q '"serve/batch_occupancy"' "$serve_trace"
grep -q '"serve/shard_restart"' "$serve_trace"
grep -q '"serve/deadline_shed"' "$serve_trace"
grep -q '"serve/brownout"' "$serve_trace"

# Release-mode acceptance guard (timing-sensitive, so #[ignore]d in the
# debug suite): measuring only the cost model's top-K candidates must
# reach >=90% of the full-lattice sweep's best throughput on the three
# bench GEMM shapes.
echo "==> top-K pruning guard (release, --ignored)"
cargo test -q --release --offline -p lowino-gemm --test topk_guard -- --ignored

# One kernel, three element types (also timing-sensitive, release-only):
# at YOLOv3_b's F(4,3) GEMM shape the i16 GEMM must stay within 4x and the
# f32 GEMM within 8x of the u8xi8 one — their instruction ratios with
# headroom, not the 78x / 23x of two row-at-a-time loops.
echo "==> element-type GEMM ratio guard (release, --ignored)"
cargo test -q --release --offline -p lowino-gemm --test element_guard -- --ignored

# PR-8 ablation regression guard (also timing-sensitive, release-only):
# the graph engine's accepted ~2-4% per-op bookkeeping overhead versus
# the per-layer interpreter must not silently widen (bound and rationale
# in tests/graph_overhead.rs and EXPERIMENTS.md).
echo "==> graph overhead guard (release, --ignored)"
cargo test -q --release --offline -p lowino-nn --test graph_overhead -- --ignored

# Deleted-names gate: the three-policy tuning switch, the online retuner,
# the per-execute blocking resolver, wisdom v1's fallback and the unused
# i16 filter panel are gone; a blocking is resolved by
# ConvContext::seed_blocking, once per executor. So are the INT16 and FP32
# GEMMs' private drivers and the caller-supplied FP32 accumulator: every
# element type plans the one GemmTasks. And the four Winograd executors are
# one: the pool-less fork-join entry points, the resilient ladder's private
# planner and the baselines' tile hand-off type went with them. Fail if any
# of the names comes back (this line excepted).
echo "==> deleted-names gate"
if grep -rnE 'TunePolicy|TuneRuntime|TuneShared|TuneTable|RetuneConfig|LOWINO_RETUNE|with_tuning|gemm_blocking|blocking_or_default|UPanelI16Unused|GemmTasksI16|GemmTasksF32|acc_len|run_static|run_static_phases|build_algo|TileLanes' \
    crates/ tests/ examples/ ci/ README.md .claude/ | grep -v 'ci/check.sh:.*grep -rnE'; then
    echo "deleted names are back (see above)" >&2
    exit 1
fi

if [[ "$run_lint" == 1 ]]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy (-D warnings)"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping lint step"
    fi
fi

echo "==> tier-1 gate passed"
