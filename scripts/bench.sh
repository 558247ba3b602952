#!/bin/sh
# Benchmark runner: executes the Go micro/figure benchmarks once (for
# the log) and records the machine-readable virtual-time report the
# CI regression gate compares against BENCH_baseline.json.
#
#   scripts/bench.sh                 # writes BENCH_<date>.json
#   BENCH_OUT=/tmp/b.json scripts/bench.sh
#   scripts/bench.sh compare /tmp/b.json   # gate: candidate vs baseline
#
# Virtual-time and allocs/op series are deterministic, so the gate
# only trips on real behavioural change, never on host speed (host
# time is cmd/dacperf's business: sh cmd/dacperf/bench.sh).
set -eu

cd "$(dirname "$0")/.."

mode="${1:-record}"

case "$mode" in
record)
    out="${BENCH_OUT:-BENCH_$(date -u +%F).json}"
    echo "==> go test -bench (informational)"
    go test -bench=. -benchtime=1x -run='^$' . | tail -n +1
    echo "==> daclint full-repo timing (informational; CI budget 30s in scripts/lint.sh)"
    mkdir -p bin
    go build -o bin/daclint ./cmd/daclint
    ./bin/daclint -json . | sed -n 's/^.*"\(elapsed_ms\|builds\|build_ms\)": \([0-9.]*\).*$/daclint \1 \2/p'
    echo "==> dacbench record -> $out"
    go run ./cmd/dacbench -out "$out"
    ;;
compare)
    candidate="${2:?usage: scripts/bench.sh compare CANDIDATE.json [BASELINE.json]}"
    baseline="${3:-BENCH_baseline.json}"
    echo "==> dacbench compare $candidate vs $baseline"
    go run ./cmd/dacbench -compare "$baseline" -candidate "$candidate"
    ;;
*)
    echo "usage: scripts/bench.sh [record|compare CANDIDATE.json [BASELINE.json]]" >&2
    exit 2
    ;;
esac
