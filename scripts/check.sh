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

# The audit engine's sweep runs on whichever actor takes a digest
# round, against state the server and scheduler actors write: repeat
# the tests that shadow every cycle with it, so the detector sees more
# than one interleaving.
# The scheduler's job view is held to qstat by the same kind of test
# (checkJobView inside the node-mirror property run).
echo "==> go test -race -count=5 (audit engine and job view equivalence)"
go test -race -count=5 -run 'TestCycleEngineEqualsFullSweepEveryCycle|TestMirrorSweepAgreesWithDeltaChecksEveryCycle|TestNodeMirrorTracksServerThroughRandomOperations' \
    ./internal/pbs ./internal/maui

# Release hands an endpoint's storage to its next owner while messages
# to the old name may still be in flight and receivers may still be
# waking: repeat the lifecycle tests under the detector.
echo "==> go test -race -count=5 (daemon lifecycle: release and reuse)"
go test -race -count=5 -run 'TestDynamicDaemonLifecycleIsSymmetric|TestPropertyReleaseAgainstMapModel' \
    ./internal/cluster ./internal/netsim

# A placement's host lists are shared by the server, the moms and the
# running scripts, and walked in one order: repeat the tests that hold
# recordings equal run to run and held lists unwritten under failure.
echo "==> go test -race -count=5 (host lists: one order, never written)"
go test -race -count=5 -run 'RecordsTheSameEveryRun|NamesTheSameNodeEveryRun|TestHostListsAreNeverWrittenOnceBuilt' ./internal/pbs

# The transition tables against the edges the package's scenarios take,
# a restart refusing mid-flight requests through them, and the one
# active list under 16-shard routing with concurrent submitters: the
# hook, the restored server and the shard workers all run beside actors
# of the test.
echo "==> go test -race -count=5 (protocol tables, Restore, the one job index)"
go test -race -count=5 -run 'TestProtocolTablesHoldExactlyTheSpec|TestEveryTableEdgeIsTaken|TestEveryPairOutsideTheTablesIsRefused|TestRestoreRejectsForwardingAndQueuedThroughTheTable|TestActiveListPropertyUnderShardRouting' ./internal/pbs

echo "==> checks passed"
