#!/usr/bin/env bash
# Compare two ledger documents (the output of `benchmark/run.sh`, ideally
# with `--runs N`): per workload, each end-to-end metric's medians against
# the metric's bound in BENCHMARK.json, then the per-layer metrics that
# moved. See benchmark/README.md, "Comparing two ledgers".
#
#   benchmark/compare.sh A.json B.json     (A = parent, B = change)
#
# Verdicts: `worse` — B's median is worse than A's by more than the bound;
# `unresolved` — either side's run-to-run spread (interquartile range over
# median) exceeds the bound, so the medians cannot be told apart, unless
# every run of B is better than every run of A; `ok` otherwise. A side with
# a single run has no spread: its verdicts carry `(1 run)`.
set -euo pipefail
if [[ $# -ne 2 ]]; then
    echo "usage: $0 A.json B.json" >&2
    exit 2
fi
spec="$(dirname "$0")/../BENCHMARK.json"
exec python3 - "$spec" "$1" "$2" <<'PY'
import json, statistics, sys

spec, a_doc, b_doc = (json.load(open(p)) for p in sys.argv[1:4])

def values(doc, workload, metric):
    runs = doc["workloads"].get(workload, {}).get("untraced", [])
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]

def spread(vals):
    if len(vals) < 2:
        return None
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(statistics.median(vals))

for key in ("cores", "simd_tier", "rustc", "git_commit", "seed", "window_s"):
    a, b = a_doc["host"].get(key), b_doc["host"].get(key)
    print(f"{key:12} A={a}  B={b}" + ("" if a == b or key == "git_commit" else "   <-- differs"))

worst = 0
for w in spec["workloads"]:
    name = w["name"]
    if name not in a_doc["workloads"] or name not in b_doc["workloads"]:
        continue
    print(f"\n== {name}")
    print(f"{'metric':18} {'unit':7} {'A median':>12} {'B median':>12} {'worse by':>9} {'bound':>6} "
          f"{'spread A':>9} {'spread B':>9}  verdict")
    for m in spec["end_to_end"]:
        va, vb = values(a_doc, name, m["name"]), values(b_doc, name, m["name"])
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        lower = m["better"] == "lower"
        worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma)
        sa, sb = spread(va), spread(vb)
        all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
        noisy = any(s is not None and s > m["bound"] for s in (sa, sb))
        if noisy and not all_better:
            verdict = "unresolved"
            worst = max(worst, 1)
        elif worse_by > m["bound"]:
            verdict = "worse"
            worst = 2
        else:
            verdict = "ok"
        if sa is None or sb is None:
            verdict += " (1 run)"
        fmt = lambda s: "-" if s is None else f"{s:.3f}"
        print(f"{m['name']:18} {m['unit']:7} {ma:12.5g} {mb:12.5g} {worse_by:+9.3f} {m['bound']:6.3f} "
              f"{fmt(sa):>9} {fmt(sb):>9}  {verdict}")
    for side, doc in (("A", a_doc), ("B", b_doc)):
        runs = doc["workloads"][name]["untraced"] + [doc["workloads"][name]["traced"]]
        failed = sum(r["failed"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            print(f"  {side}: {failed} failed ops, correct={all(r['correct'] for r in runs)}")
            worst = 2
    ta = a_doc["workloads"][name]["traced"]["metrics"]
    tb = b_doc["workloads"][name]["traced"]["metrics"]
    moved = []
    for m in spec["per_layer"]:
        x, y = ta[m["name"]]["value"], tb[m["name"]]["value"]
        if x != 0 and abs(y - x) / abs(x) >= 0.05:
            moved.append(f"  {m['name']:32} {x:12.5g} -> {y:12.5g} {m['unit']:7} ({(y - x) / abs(x):+.1%})")
    if moved:
        print("per-layer metrics that moved 5 % or more (one traced run a side, no bound):")
        print("\n".join(moved))

sys.exit(1 if worst == 2 else 0)
PY
