#!/bin/sh
# Tier-1 input contract check for the example programs and the bench
# harnesses' environment knobs:
#
#   exit 0  the examples' smoke arguments, and a harness with valid
#           BUSARB_BENCH_BATCH / BUSARB_BENCH_JOBS values
#   exit 2  a malformed or out-of-range example argument, an unknown
#           bus_monitor protocol (with a did-you-mean hint), and a
#           malformed or out-of-range bench environment variable —
#           always naming the argument or variable
#
# Usage: check_example_cli.sh EXAMPLES_DIR BENCH_DIR
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 EXAMPLES_DIR BENCH_DIR" >&2
    exit 2
fi
ex="$1"
bench="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fails=0

# expect <code> <needle> <label> -- cmd...: run cmd, require the exit
# status and (when needle is non-empty) the named token in the output.
expect() {
    want="$1"; needle="$2"; label="$3"
    shift 3
    set +e
    "$@" > "$tmp/out" 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $label exited $got, expected $want" >&2
        cat "$tmp/out" >&2
        fails=$((fails + 1))
        return 0
    fi
    if [ -n "$needle" ] && ! grep -q -e "$needle" "$tmp/out"; then
        echo "FAIL: $label output lacks '$needle'" >&2
        cat "$tmp/out" >&2
        fails=$((fails + 1))
    fi
}

# Smoke arguments (the examples' ctest arguments) still run.
expect 0 "" "quickstart 1.0" "$ex/quickstart" 1.0
expect 0 "" "fairness_demo 6" "$ex/fairness_demo" 6
expect 0 "" "priority_traffic 0.2" "$ex/priority_traffic" 0.2
expect 0 "" "multi_outstanding 2" "$ex/multi_outstanding" 2
expect 0 "" "bus_monitor rr3" "$ex/bus_monitor" rr3
expect 0 "" "burst_dynamics 3" "$ex/burst_dynamics" 3

# Bad numeric arguments exit 2 naming the argument.
expect 2 "total_offered_load" "quickstart abc" "$ex/quickstart" abc
expect 2 "total_offered_load" "quickstart -1" "$ex/quickstart" -1
expect 2 "total_offered_load" "quickstart 10" "$ex/quickstart" 10
expect 2 "total_offered_load" "quickstart nan" "$ex/quickstart" nan
expect 2 "num_agents" "fairness_demo abc" "$ex/fairness_demo" abc
expect 2 "num_agents" "fairness_demo 2" "$ex/fairness_demo" 2
expect 2 "priority_fraction" "priority_traffic 2" \
    "$ex/priority_traffic" 2
expect 2 "burst_per_agent" "burst_dynamics 0" "$ex/burst_dynamics" 0
expect 2 "burst_per_agent" "burst_dynamics -3" "$ex/burst_dynamics" -3
expect 2 "burst_per_agent" "burst_dynamics 3x" "$ex/burst_dynamics" 3x
expect 2 "max_r" "multi_outstanding 0" "$ex/multi_outstanding" 0
expect 2 "max_r" "multi_outstanding 65" "$ex/multi_outstanding" 65

# An unknown protocol key exits 2 with a did-you-mean hint.
expect 2 "did you mean 'rr1'" "bus_monitor rr9" "$ex/bus_monitor" rr9

# Bench environment knobs: valid values run, bad ones exit 2 naming
# the variable before any scenario runs.
expect 0 "batch size 200" "bench batch 200 jobs 2" \
    env BUSARB_BENCH_BATCH=200 BUSARB_BENCH_JOBS=2 "$bench/hybrid_eval"
expect 2 "BUSARB_BENCH_BATCH" "bench batch abc" \
    env BUSARB_BENCH_BATCH=abc "$bench/hybrid_eval"
expect 2 "BUSARB_BENCH_BATCH" "bench batch 200x" \
    env BUSARB_BENCH_BATCH=200x "$bench/hybrid_eval"
expect 2 "BUSARB_BENCH_BATCH" "bench batch 0" \
    env BUSARB_BENCH_BATCH=0 "$bench/hybrid_eval"
expect 2 "BUSARB_BENCH_JOBS" "bench jobs abc" \
    env BUSARB_BENCH_BATCH=200 BUSARB_BENCH_JOBS=abc \
    "$bench/table_4_5_worst_case"
expect 2 "BUSARB_BENCH_JOBS" "bench jobs -1" \
    env BUSARB_BENCH_BATCH=200 BUSARB_BENCH_JOBS=-1 \
    "$bench/table_4_5_worst_case"

if [ "$fails" -ne 0 ]; then
    echo "FAIL: $fails example/bench input check(s) failed" >&2
    exit 1
fi
echo "ok: smoke arguments exit 0; bad example arguments and bench" \
     "environment values exit 2 naming the argument or variable"
