#!/bin/sh
# Static and dynamic checks for the whole module: formatting, vet, the
# lint gate, the test suite under the race detector (all but
# internal/lint, whose tests lint.sh has just run), and the pins of
# results/pins.json that need no host-time run: the figures' capture,
# the sharded 4096 ladder and dacbench's virtual-time series. Run from
# anywhere; CI and scripts/reproduce.sh call this before anything else.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

# Paper §III is written once (internal/pbs/protocol.go, DESIGN.md §11):
# the state of a job or of a dynamic request is written by
# advanceJobLocked / advanceDynLocked and by nothing else, so every
# transition is checked against the tables, stamped and recorded.
echo "==> state writes outside internal/pbs/protocol.go"
writes=$(grep -nE '\.State[[:space:]]*(=[^=]|\+\+|--|[-+|&^]=)|[^A-Za-z]State:[[:space:]]*(Job|Dyn)' internal/pbs/*.go |
    grep -v -e '_test\.go:' -e '^internal/pbs/protocol\.go:' || true)
if [ -n "$writes" ]; then
    echo "a job's or request's State is written outside protocol.go:" >&2
    echo "$writes" >&2
    exit 1
fi

# The slot is the lock (DESIGN.md §7): no kernel or observer keeps an atomic.
echo "==> sync/atomic in internal/sim, trace, telemetry, audit"
atomics=$(grep -ln '"sync/atomic"' internal/sim/*.go internal/trace/*.go internal/telemetry/*.go internal/audit/*.go |
    grep -v '_test\.go$' || true)
if [ -n "$atomics" ]; then
    echo "sync/atomic imported where the slot is the lock:" >&2
    echo "$atomics" >&2
    exit 1
fi

echo "==> lint (daclint suite + staticcheck/govulncheck when installed)"
sh scripts/lint.sh

# internal/lint loads and walks source files and starts no goroutine or
# simulation, so the race detector has nothing to watch there; lint.sh
# above runs its gate, and tier-1 and CI's coverage job run its tests
# plain.
echo "==> go test -race -shuffle=on (all packages but internal/lint)"
pkgs=$(go list ./... | grep -v /internal/lint)
# shellcheck disable=SC2086
go test -race -shuffle=on -count=1 $pkgs

# The sim kernel runs one actor at a time, so a seed has one
# interleaving and repeating a test under the detector no longer shows
# it another. Whole-run determinism is TestReplayCorpus in
# internal/core, which runs every scenario twice with all observers on
# and rides in the race pass above like every test. What is repeated
# here are the properties of the kernel and the drivers themselves: the
# kernel's property tests (host-schedule injection, the running-slot
# check, SleepSteps against single sleeps), the server's stations
# handing their requests over across Stop/Restore, Maui's placements
# landing at their walk step, and the scheduler round's two equalities:
# the merged priority order against the stable sort, the job mirror
# against qstat and a full answer; a pbs message record on one free
# list at a time and never also held, through a host failure (free.go);
# the driver's own rules: a callback's panic out of Run with no idle
# worker left behind, runtime.Goexit unwinding Run, a gate wait that
# lets go of its locks before the driver runs, workers reused and gone
# at halt, and a stale deadline that never ends a later wait; and the
# slot as the lock: the paper figures at -parallel 4 beside a service
# run, where state two simulations share without a lock is a race
# report, the observers' included (tracer, registry and recorder take
# no lock either).
echo "==> go test -race -count=5 (one actor at a time: the kernel and driver properties)"
go test -race -count=5 -run 'TestOneActorAtATimeRecordsTheSameUnderAnyHostSchedule|TestSleepStepsIsNSleeps|TestStopWhileAStationIsBusy|TestWalkWritesLandAtTheirStep|TestMergedOrderIsTheStableSortByPriority|TestNodeMirrorTracksServerThroughRandomOperations|TestMessageRecordsLiveOnOneListAtATime|TestCallbackPanicSurfacesFromRun|TestCallbackPanicStopsIdleWorkers|TestGoexitUnwindsRun|TestGateWaitReleasesItsLockBeforeDispatch|TestWorkersAreReusedAndExitAtHalt|TestStaleDeadlinesNeverEndALaterWait|TestSimulationsShareNothingUnguarded' \
    ./internal/sim ./internal/core ./internal/pbs ./internal/maui

# The two largest outputs repeat byte for byte, and each is pinned in
# results/pins.json. The sharded 8 -> 4096 ladder runs three times
# (about 5 s each). Every paper-figure trial records into its own
# observer session, so the figures' capture is the same bytes at any
# -parallel: three runs at the default and one serial run (about 0.3 s
# each). Each run must also succeed: a run that fails the same way
# every time would print one output too. dacbench's record (figures,
# scale ladders and serve points, about 4.5 s) runs once, and each of
# its virtual-time series is pinned there as well. A change that means
# to move an output re-pins it there and says why.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/dacsim" ./cmd/dacsim
go build -o "$bin/dacbench" ./cmd/dacbench

# failed WHAT RUN: print the run's stderr and fail.
failed() {
    echo "$1 exited non-zero (run $2):" >&2
    cat "$bin/run.err" >&2
    exit 1
}

echo "==> dacsim -fig scale -scale-max 4096 -server sharded, 3 runs"
for run in 1 2 3; do
    "$bin/dacsim" -fig scale -scale-max 4096 -server sharded -parallel 1 \
        >"$bin/scale$run.txt" 2>"$bin/run.err" || failed "the sharded 4096 ladder" "$run"
    cmp "$bin/scale1.txt" "$bin/scale$run.txt" >&2
done

echo "==> dacsim -fig all -observe trace,telemetry,audit -capture, 4 runs"
run=0
for parallel in 0 0 0 1; do
    run=$((run + 1))
    "$bin/dacsim" -fig all -parallel "$parallel" -observe trace,telemetry,audit \
        -capture "$bin/figs$run" >/dev/null 2>"$bin/run.err" || failed "the paper figures at -parallel $parallel" "$run"
    cmp "$bin/figs1.jsonl" "$bin/figs$run.jsonl" >&2
done

echo "==> dacbench, the virtual-time series"
"$bin/dacbench" >"$bin/virtual.json" 2>"$bin/run.err" || failed "dacbench" 1

echo "==> dacbench -check results/pins.json"
"$bin/dacbench" -check results/pins.json figs="$bin/figs1.jsonl" scale-sharded-4096="$bin/scale1.txt" \
    virtual="$bin/virtual.json"

echo "==> checks passed"
