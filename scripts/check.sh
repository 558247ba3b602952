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
# the stable sort, the job mirror against qstat and a full answer.
echo "==> go test -race -count=5 (one actor at a time: same seed, same bytes)"
go test -race -count=5 -run 'TestOneActorAtATimeRecordsTheSameUnderAnyHostSchedule|TestSleepStepsIsNSleeps|TestSplitContextIDsAreTheSameEveryRun|TestFig7bCaptureIsTheSameEveryRun|TestSLOIdenticalAcrossParallelism|TestScaleAuditedCleanAndParallelismInvariant|TestBreakdownExactAtEveryParallelism|TestServeDeterministic|TestServeParallelInvariance|TestStopWhileAStationIsBusy|TestWalkWritesLandAtTheirStep|TestMergedOrderIsTheStableSortByPriority|TestNodeMirrorTracksServerThroughRandomOperations' \
    ./internal/sim ./internal/mpi ./internal/core ./internal/service ./internal/pbs ./internal/maui

# The largest run repeats byte for byte: the sharded 8 -> 4096 ladder,
# three times (about 5 s each).
echo "==> dacsim -fig scale -scale-max 4096 -server sharded, 3 runs, one md5"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/dacsim" ./cmd/dacsim
sums=$(for run in 1 2 3; do
    "$bin/dacsim" -fig scale -scale-max 4096 -server sharded -parallel 1 2>/dev/null | md5sum
done | sort -u)
if [ "$(echo "$sums" | wc -l)" -ne 1 ]; then
    echo "the sharded 4096 ladder printed more than one output:" >&2
    echo "$sums" >&2
    exit 1
fi

echo "==> checks passed"
