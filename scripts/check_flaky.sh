#!/bin/sh
# Flakiness probe: run the ctest suite of an existing build with every
# test repeated up to N times (ctest -j$(nproc) --repeat until-fail:N)
# and report how many tests passed all N runs. Tests still run
# concurrently with each other, so shared-file and timing races show
# up. A reliable suite passes every test N of N times.
#
# Not a tier-1 test: it repeats the whole suite, which must not run
# itself.
#
# Usage: check_flaky.sh BUILD_DIR [N]   (N defaults to 20)
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BUILD_DIR [N]" >&2
    exit 2
fi
build="$1"
runs="${2:-20}"
case "$runs" in
    ''|*[!0-9]*|0)
        echo "$0: N must be a positive integer, got '$runs'" >&2
        exit 2
        ;;
esac
if [ ! -f "$build/CTestTestfile.cmake" ]; then
    echo "$0: '$build' is not a configured build directory" >&2
    exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

set +e
ctest --test-dir "$build" -j"$jobs" --repeat until-fail:"$runs" \
    > "$log" 2>&1
status=$?
set -e

# ctest's summary line: "NN% tests passed, F tests failed out of T".
summary="$(grep -E 'tests passed, [0-9]+ tests? failed out of' "$log" ||
           true)"
if [ -z "$summary" ]; then
    echo "$0: ctest produced no summary (exit $status):" >&2
    tail -n 20 "$log" >&2
    exit 1
fi
failed="$(echo "$summary" | sed -E 's/.* ([0-9]+) tests? failed.*/\1/')"
total="$(echo "$summary" | sed -E 's/.*out of ([0-9]+).*/\1/')"
if [ "$failed" -ne 0 ]; then
    echo "tests that failed within $runs runs:" >&2
    sed -n '/The following tests FAILED/,$p' "$log" | tail -n +2 |
        grep -E '^[[:space:]]+[0-9]+ - ' >&2 || true
fi
echo "$((total - failed))/$total tests passed all $runs runs" \
     "(ctest -j$jobs --repeat until-fail:$runs)"
[ "$failed" -eq 0 ]
