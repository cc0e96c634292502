#!/bin/sh
# Kernel-benchmark regression smoke for the event-queue rebuild:
#
#   1. Runs the micro_kernel google-benchmark binary in smoke mode
#      (short min_time, 3 repetitions, medians) over the
#      BM_FullSimulation, BM_FullSimulationObserved and BM_EventQueue*
#      families.
#   2. Measures the two timing pins as paired ratios. Each A/B pair
#      (BM_FullSimulationAgents20 calendar/heap, BM_FullSimulationProfiled
#      unprofiled/profiled) runs on its own with 81 repetitions of
#      0.01 s; google-benchmark shuffles the repetitions of both
#      instances into one random order. The k-th repetition of A is
#      paired with the k-th repetition of B: both sit at about the
#      same place in the shuffled run, so slow drift in host speed
#      largely cancels out of their ratio. Each pin is the median of
#      the 81 per-pair ratios; the summary lists the median rates of
#      these runs alongside the smoke families.
#   3. Emits a machine-readable summary (BENCH_6.json by default; set
#      BUSARB_BENCH_OUT to relocate) with the measured rates and the
#      verdict of each pin below.
#   4. Fails if any pin regresses:
#        - the calendar queue must beat the in-binary heap policy on
#          the paper's 20-agent full simulation by at least
#          BUSARB_BENCH_MIN_CAL_VS_HEAP (default 1.10x);
#        - the self-profiler's full-simulation overhead must stay
#          within BUSARB_BENCH_MAX_OVERHEAD_PCT (default 5; the
#          design target is <2% — see docs/KERNEL.md — but a smoke
#          run on a loaded host needs noise headroom, so CI on quiet
#          machines should tighten this via the environment);
#        - the steady-state pop path must perform zero callback heap
#          allocations (BM_EventQueuePopAllocations's counter).
#
# Smoke numbers are for regression pinning only; the committed
# BENCH_6.json at the repo root records the curated before/after
# measurements with methodology notes.
#
# Usage: check_bench.sh /path/to/micro_kernel
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 /path/to/micro_kernel" >&2
    exit 2
fi
bench="$1"
out="${BUSARB_BENCH_OUT:-BENCH_6.json}"

if ! command -v python3 > /dev/null 2>&1; then
    echo "SKIP: python3 not available to parse benchmark JSON" >&2
    exit 77
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bench" \
    --benchmark_filter='^(BM_FullSimulation|BM_FullSimulationObserved)/|^BM_EventQueue' \
    --benchmark_min_time="${BUSARB_BENCH_MIN_TIME:-0.05}" \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$tmp/raw.json"

# paired FILTER OUT: 81 repetitions of each of FILTER's two instances,
# all shuffled into one random order.
paired() {
    "$bench" \
        --benchmark_filter="$1" \
        --benchmark_min_time=0.01 \
        --benchmark_repetitions=81 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_format=json > "$2"
}
paired '^BM_FullSimulationAgents20/' "$tmp/queue.json"
paired '^BM_FullSimulationProfiled/' "$tmp/profiler.json"

python3 - "$tmp/raw.json" "$tmp/queue.json" "$tmp/profiler.json" \
    "$out" << 'EOF'
import json
import os
import statistics
import sys

raw_path, queue_path, profiler_path, out_path = sys.argv[1:5]
# Index the median aggregates of every run by benchmark name.
medians = {}
for path in (raw_path, queue_path, profiler_path):
    with open(path) as f:
        for b in json.load(f).get("benchmarks", []):
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = b

def rate(name, counter):
    b = medians.get(name)
    if b is None or counter not in b:
        sys.exit(f"FAIL: benchmark {name} missing counter {counter}")
    return float(b[counter])

def pairs(path, a_name, b_name, counter):
    """(a, b) rates of each repetition that measured both instances."""
    with open(path) as f:
        runs = json.load(f).get("benchmarks", [])
    by_rep = {}
    for b in runs:
        if b.get("run_type") == "iteration" and counter in b:
            by_rep.setdefault(b["repetition_index"], {})[b["run_name"]] = (
                float(b[counter]))
    got = [(r[a_name], r[b_name]) for _, r in sorted(by_rep.items())
           if a_name in r and b_name in r]
    if not got:
        sys.exit(f"FAIL: no paired repetitions of {a_name} and {b_name}")
    return got

queue_pairs = pairs(queue_path, "BM_FullSimulationAgents20/0",
                    "BM_FullSimulationAgents20/1", "events_per_second")
profiler_pairs = pairs(profiler_path, "BM_FullSimulationProfiled/0",
                       "BM_FullSimulationProfiled/1", "items_per_second")
pop_allocs = rate("BM_EventQueuePopAllocations", "callback_heap_allocs")

min_ratio = float(os.environ.get("BUSARB_BENCH_MIN_CAL_VS_HEAP", "1.10"))
max_overhead = float(os.environ.get("BUSARB_BENCH_MAX_OVERHEAD_PCT", "5"))

ratio = statistics.median(
    cal / heap if heap > 0 else 0.0 for cal, heap in queue_pairs)
overhead_pct = max(0.0, statistics.median(
    (unprof - prof) / unprof * 100.0 for unprof, prof in profiler_pairs))

checks = [
    {
        "name": "calendar_vs_heap_full_sim",
        "detail": "BM_FullSimulationAgents20 calendar/heap events/s, "
                  f"median of {len(queue_pairs)} paired repetitions",
        "measured": round(ratio, 3),
        "threshold": min_ratio,
        "ok": ratio >= min_ratio,
    },
    {
        "name": "profiler_overhead_pct",
        "detail": "BM_FullSimulationProfiled (unprofiled-profiled)/unprofiled, "
                  f"median of {len(profiler_pairs)} paired repetitions",
        "measured": round(overhead_pct, 2),
        "threshold": max_overhead,
        "ok": overhead_pct <= max_overhead,
    },
    {
        "name": "pop_path_zero_callback_allocs",
        "detail": "BM_EventQueuePopAllocations callback_heap_allocs",
        "measured": pop_allocs,
        "threshold": 0,
        "ok": pop_allocs == 0,
    },
]

summary = {
    "suite": "busarb micro_kernel smoke",
    "filter": "BM_FullSimulation|BM_EventQueue",
    "results": {
        name: {
            k: b[k]
            for k in ("real_time", "items_per_second", "events_per_second",
                      "callback_heap_allocs")
            if k in b
        }
        for name, b in sorted(medians.items())
    },
    "checks": checks,
    "pass": all(c["ok"] for c in checks),
}
with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

for c in checks:
    verdict = "ok" if c["ok"] else "FAIL"
    print(f"{verdict}: {c['name']} measured={c['measured']} "
          f"threshold={c['threshold']}")
if not summary["pass"]:
    sys.exit(1)
EOF

echo "ok: kernel benchmark pins hold; summary written to $out"
