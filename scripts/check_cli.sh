#!/bin/sh
# Tier-1 CLI contract check for all four tools:
#
#   exit 0  --help and --list-protocols (informational output)
#   exit 2  usage errors: unknown flags, malformed protocol specs,
#           malformed scenario files, flag/scenario conflicts, and
#           numbers that are not finite or out of a flag's range —
#           always naming the offending token, with a did-you-mean
#           hint where one is close
#
# Usage: check_cli.sh sim sweep trace report
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 sim sweep trace report" >&2
    exit 2
fi
sim="$1"
sweep="$2"
trace="$3"
report="$4"

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

# Informational flags exit 0 on every tool.
expect 0 "--help" "sim --help" "$sim" --help
expect 0 "--help" "sweep --help" "$sweep" --help
expect 0 "--help" "trace --help" "$trace" --help
expect 0 "--help" "report --help" "$report" --help
expect 0 "wrr" "sim --list-protocols" "$sim" --list-protocols
expect 0 "rr1" "sim --list-protocols" "$sim" --list-protocols
expect 0 "wrr" "sweep --list-protocols" "$sweep" --list-protocols
expect 0 "onoff" "sim --list-workloads" "$sim" --list-workloads
expect 0 "trace" "sim --list-workloads" "$sim" --list-workloads
expect 0 "mmpp" "sweep --list-workloads" "$sweep" --list-workloads

# Unknown flags exit 2 and name the flag, on every tool.
expect 2 "no-such-flag" "sim unknown flag" "$sim" --no-such-flag
expect 2 "no-such-flag" "sweep unknown flag" "$sweep" --no-such-flag
expect 2 "no-such-flag" "trace unknown flag" "$trace" --no-such-flag
expect 2 "no-such-flag" "report unknown flag" "$report" --no-such-flag

# Malformed protocol specs exit 2 naming the offending token.
expect 2 "nope" "sim unknown protocol" "$sim" --protocol nope
expect 2 "did you mean 'rr1'" "sim protocol hint" "$sim" --protocol rr9
expect 2 "bogus" "sim unknown option" "$sim" --protocol rr1:bogus=1
expect 2 "out of range" "sim option range" \
    "$sim" --protocol fcfs1:bits=99
expect 2 "nope" "sweep unknown protocol" \
    "$sweep" --protocols rr1,nope --loads 0.5
expect 2 "did you mean 'fcfs1'" "report protocol hint" \
    "$report" --protocol fcsf1 --out "$tmp/report.md"

# busarb_trace without a mode or input is a usage error.
expect 2 "" "trace without arguments" "$trace"

# Malformed workload-source specs exit 2 naming the token, with
# did-you-mean hints, on every tool that takes --source.
expect 2 "did you mean 'open'" "sim workload hint" \
    "$sim" --protocol rr1 --source opne
expect 2 "did you mean 'rate'" "sim workload option hint" \
    "$sim" --protocol rr1 --source open:rte=2
expect 2 "did you mean 'closed'" "sweep workload hint" \
    "$sweep" --protocols rr1 --source clsed
expect 2 "did you mean 'onoff'" "report workload hint" \
    "$report" --protocol rr1 --source onof --out "$tmp/report.md"

# Loadless sources conflict with a load axis; doomed trace runs are
# caught before any cell runs.
expect 2 "requires file=" "sim trace without file" \
    "$sim" --protocol rr1 --source trace
expect 2 "conflicts with --source" "sim trace with --load" \
    "$sim" --protocol rr1 --source "trace:file=$tmp/x.trace" --load 2
expect 2 "conflicts with --source" "sweep trace with --loads" \
    "$sweep" --protocols rr1 --source "trace:file=$tmp/x.trace" \
    --loads 0.5
expect 2 "cannot read" "sim missing trace file" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --source "trace:file=$tmp/does-not-exist.trace"
printf '0.5 1\n1.0 2\n' > "$tmp/short.trace"
expect 2 "shorten the run" "sim short trace" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --source "trace:file=$tmp/short.trace"

# Scenario files: parse errors are line-numbered usage errors, and
# workload flags conflict with --scenario.
cat > "$tmp/bad.scenario" <<'EOF'
[workload]
agents = none
EOF
expect 2 "line 2" "sim bad scenario file" \
    "$sim" --scenario "$tmp/bad.scenario"
cat > "$tmp/ok.scenario" <<'EOF'
[workload]
agents = 4
load = 1
[run]
batches = 2
batch-size = 100
EOF
expect 2 "conflicts with --scenario" "sim scenario/flag conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --agents 8
expect 2 "conflicts with --scenario" "sim scenario/source conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --source open:rate=2
expect 2 "conflicts with --scenario" "sim scenario/hot conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --hot-agents 2 --hot-factor 3
expect 2 "conflicts with --grid" "sweep grid/source conflict" \
    "$sweep" --grid "$tmp/ok.scenario" --source open:rate=2
expect 2 "conflicts with --scenario" "report scenario/flag conflict" \
    "$report" --scenario "$tmp/ok.scenario" --cv 2 \
    --out "$tmp/report.md"
expect 1 "cannot read" "sim missing scenario file" \
    "$sim" --scenario "$tmp/does-not-exist.scenario"

# A scenario whose family takes loads but names none (an empty file is
# enough) is a usage error on every tool that reads one.
: > "$tmp/empty.scenario"
expect 2 "need at least one load" "sim scenario without load" \
    "$sim" --scenario "$tmp/empty.scenario"
expect 2 "need at least one load" "report scenario without load" \
    "$report" --scenario "$tmp/empty.scenario" --out "$tmp/report.md"
expect 2 "need at least one protocol and one load" \
    "sweep grid without load" "$sweep" --grid "$tmp/empty.scenario"

# A trace event naming an agent outside the chunk's 1..N is a corrupt
# trace: chunk of 2 agents, one request from agent 77.
printf 'BATR\001\002\001x\001\000\115\001\000\000' > "$tmp/agent77.trace"
expect 2 "agent 77" "trace audit out-of-range agent" \
    "$trace" audit "$tmp/agent77.trace"
expect 2 "chunk 0 event 0" "trace out-of-range agent" \
    "$trace" "$tmp/agent77.trace"

# Artifact paths into a missing parent directory are usage errors,
# caught up front (before any simulation) and naming both the
# directory and the flag, on every tool that writes artifacts.
missing="$tmp/no/such/dir"
expect 2 "$tmp/no/such" "sim metrics parent dir" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --metrics-out "$missing/m.json"
expect 2 "trace-out" "sim trace parent dir" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --trace-out "$missing/run.trace"
expect 2 "does not exist" "sweep csv parent dir" \
    "$sweep" --protocols rr1 --loads 0.5 --agents 4 --batches 1 \
    --batch-size 100 --csv "$missing/sweep.csv"
expect 2 "snapshot-out" "sweep snapshot parent dir" \
    "$sweep" --protocols rr1 --loads 0.5 --agents 4 --batches 1 \
    --batch-size 100 --health --snapshot-out "$missing/s.jsonl"
expect 2 "does not exist" "report out parent dir" \
    "$report" --protocol rr1 --agents 4 --batches 1 \
    --batch-size 100 --out "$missing/report.md"
expect 2 "perfetto" "trace perfetto parent dir" \
    "$trace" "$tmp/whatever.trace" --perfetto "$missing/t.json"

# Observer knobs are checked once, for every tool that takes them:
# values an observer cannot use exit 2 naming the flag instead of
# tripping an assert mid-run (or, for nan, silently recording nothing).
small="--agents 4 --batches 1 --batch-size 50 --warmup 10"
for v in -1 0 nan; do
    expect 2 "health-rel-hw" "sim --health-rel-hw $v" \
        "$sim" $small --health --health-rel-hw "$v"
done
expect 2 "health-lag1" "sim --health-lag1 -2" \
    "$sim" $small --health --health-lag1 -2
expect 2 "fairness-window" "sim --fairness-window nan" \
    "$sim" $small --fairness --fairness-window nan
expect 2 "snapshot-every" "sim --snapshot-every nan" \
    "$sim" $small --snapshot-every nan --snapshot-out "$tmp/s.jsonl"
expect 2 "bypass-bound" "sim --bypass-bound -3" \
    "$sim" $small --fairness --bypass-bound -3

# busarb_sweep's flag-built spec goes through the same re-check as
# busarb_sim's, so bad run controls exit 2 instead of aborting or
# hanging.
sweep_small="--protocols rr1 --loads 0.5"
expect 2 "agents" "sweep --agents 0" \
    "$sweep" $sweep_small --batches 1 --batch-size 50 --agents 0
expect 2 "cv" "sweep --cv -1" \
    "$sweep" $sweep_small --batches 1 --batch-size 50 --cv -1
expect 2 "batches" "sweep --batches 0" \
    "$sweep" $sweep_small --batch-size 50 --batches 0
expect 2 "batches" "sweep --batches -2" \
    "$sweep" $sweep_small --batch-size 50 --batches -2
expect 2 "batch-size" "sweep --batch-size -1" \
    "$sweep" $sweep_small --batches 1 --batch-size -1

# Numbers must be finite, and integers that become counts must not be
# negative.
expect 2 "load" "sim --load nan" "$sim" $small --load nan
expect 2 "loads" "sweep --loads nan" \
    "$sweep" --protocols rr1 --batches 1 --batch-size 50 --loads nan
expect 2 "window" "sim fcfs2:window=nan" \
    "$sim" $small --protocol fcfs2:window=nan
expect 2 "arb-overhead" "sim --arb-overhead inf" \
    "$sim" $small --arb-overhead inf
expect 2 "warmup" "sim --warmup -1" \
    "$sim" --agents 4 --batches 1 --batch-size 50 --warmup -1
expect 2 "flight-recorder" "sim --flight-recorder -5" \
    "$sim" $small --flight-recorder -5
expect 2 "jobs" "sim --jobs -3" "$sim" $small --jobs -3
expect 2 "jobs" "sweep --jobs -3" \
    "$sweep" $sweep_small --batches 1 --batch-size 50 --jobs -3
expect 2 "fleet" "sweep --fleet -3" \
    "$sweep" $sweep_small --batches 1 --batch-size 50 --shards 2 \
    --shard-dir "$tmp/fleet" --fleet -3

# Workload shapes the scenario builders cannot make are usage errors
# too, for flags and scenario files alike.
expect 2 "load 20" "sim per-agent load >= 1" \
    "$sim" $small --load 20
expect 2 "worst-case" "sim worst case with 3 agents" \
    "$sim" --worst-case --agents 3 --batches 1 --batch-size 50

# The event-queue policy is not a tool option.
expect 2 "unknown flag --queue" "sim --queue" "$sim" --queue heap
expect 2 "unknown flag --queue" "sweep --queue" "$sweep" --queue heap

if [ "$fails" -ne 0 ]; then
    echo "FAIL: $fails CLI contract check(s) failed" >&2
    exit 1
fi
echo "ok: help/list exit 0; unknown flags, bad specs, bad scenario" \
     "files and flag conflicts exit 2 naming the token"
