#!/bin/sh
# Static and dynamic checks for the whole module: formatting, vet,
# and the full test suite under the race detector. Run from anywhere;
# CI and scripts/reproduce.sh call this before anything else.
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

echo "==> daclint (+ staticcheck/govulncheck when installed)"
sh scripts/lint.sh

echo "==> go test -race -shuffle=on"
go test -race -shuffle=on ./... -count=1

# The sim kernel runs one actor at a time, so a seed has one
# interleaving and repeating a test under the detector no longer shows
# it another. What is repeated is the determinism itself: the kernel's
# property tests (host-schedule injection, the running-slot check,
# SleepSteps against single sleeps), the two same-order-every-run tests,
# the five tests that compare whole runs across seeds or parallelism
# levels, the server's stations handing their requests over across
# Stop/Restore, Maui's placements landing at their walk step, and the
# scheduler round's two equalities: the merged priority order against
# the stable sort, the job mirror against qstat and a full answer; the
# driver's own rules: a callback's panic out of Run with no idle
# worker left behind, runtime.Goexit unwinding Run, a gate wait that lets
# go of its locks before the driver runs, workers reused and gone at
# halt, and a stale deadline that never ends a later wait; and the slot
# as the lock: the paper figures at -parallel 4 beside a service run,
# where state two simulations share without a lock is a race report.
echo "==> go test -race -count=5 (one actor at a time: same seed, same bytes)"
go test -race -count=5 -run 'TestOneActorAtATimeRecordsTheSameUnderAnyHostSchedule|TestSleepStepsIsNSleeps|TestSplitContextIDsAreTheSameEveryRun|TestFig7bCaptureIsTheSameEveryRun|TestSLOIdenticalAcrossParallelism|TestScaleAuditedCleanAndParallelismInvariant|TestBreakdownExactAtEveryParallelism|TestServeDeterministic|TestServeParallelInvariance|TestStopWhileAStationIsBusy|TestWalkWritesLandAtTheirStep|TestMergedOrderIsTheStableSortByPriority|TestNodeMirrorTracksServerThroughRandomOperations|TestCallbackPanicSurfacesFromRun|TestCallbackPanicStopsIdleWorkers|TestGoexitUnwindsRun|TestGateWaitReleasesItsLockBeforeDispatch|TestWorkersAreReusedAndExitAtHalt|TestStaleDeadlinesNeverEndALaterWait|TestSimulationsShareNothingUnguarded' \
    ./internal/sim ./internal/mpi ./internal/core ./internal/service ./internal/pbs ./internal/maui

# The largest run repeats byte for byte: the sharded 8 -> 4096 ladder,
# three times (about 5 s each), and it is the pinned output. Each run
# must also succeed: a run that fails the same way three times would
# print one md5 too. A change that means to move the sharded path's
# virtual time re-pins it and says why.
scale_md5=54b87afde7ba96055133c8f59e176c96
echo "==> dacsim -fig scale -scale-max 4096 -server sharded, 3 runs, md5 $scale_md5"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/dacsim" ./cmd/dacsim
for run in 1 2 3; do
    "$bin/dacsim" -fig scale -scale-max 4096 -server sharded -parallel 1 \
        >"$bin/scale.txt" 2>"$bin/scale.err" || {
        echo "the sharded 4096 ladder exited non-zero (run $run):" >&2
        cat "$bin/scale.err" >&2
        exit 1
    }
    md5sum < "$bin/scale.txt" >> "$bin/scale.md5"
done
sums=$(sort -u "$bin/scale.md5")
if [ "$(echo "$sums" | wc -l)" -ne 1 ]; then
    echo "the sharded 4096 ladder printed more than one output:" >&2
    echo "$sums" >&2
    exit 1
fi
if [ "${sums%% *}" != "$scale_md5" ]; then
    echo "the sharded 4096 ladder reads md5 ${sums%% *}, pinned $scale_md5" >&2
    exit 1
fi

# Every paper-figure trial records into its own observer session, so
# the figures' capture is the same bytes at any -parallel: three runs at
# the default and one serial run give one md5 (about 0.3 s each), and it
# is the pinned one. A change that means to alter what the observers
# record re-pins it and says why; any other change keeps every byte.
figs_md5=85498b88ae587cebce253fd1283779ea
echo "==> dacsim -fig all -observe trace,telemetry,audit -capture, 4 runs, md5 $figs_md5"
for parallel in 0 0 0 1; do
    "$bin/dacsim" -fig all -parallel "$parallel" -observe trace,telemetry,audit \
        -capture "$bin/figs" >/dev/null 2>&1
    md5sum < "$bin/figs.jsonl" >> "$bin/figs.md5"
done
sums=$(sort -u "$bin/figs.md5")
if [ "$(echo "$sums" | wc -l)" -ne 1 ]; then
    echo "the paper figures' capture differs between runs:" >&2
    echo "$sums" >&2
    exit 1
fi
if [ "${sums%% *}" != "$figs_md5" ]; then
    echo "the paper figures' capture reads md5 ${sums%% *}, pinned $figs_md5" >&2
    exit 1
fi

echo "==> checks passed"
