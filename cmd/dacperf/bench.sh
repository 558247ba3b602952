#!/bin/sh
# BENCHMARK.json's command: build dacperf from source and run one
# workload, passing the driver's arguments through. Everything the Go
# toolchain writes (build cache, temp files, its own config) is kept
# under .bench_build in the checkout, so a run touches nothing outside.
set -eu

# Without the module there is nothing to build: say so before starting
# any process.
if [ ! -f go.mod ]; then
	echo "bench.sh: no go.mod in $(pwd): run from the root of a checkout that holds the program" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

# With a config directory it has not seen before, the go command starts
# a telemetry sidecar ("go ** telemetry **") that it does not wait for
# and that outlives the run. Mode off stops it from being started.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/dacperf" ./cmd/dacperf
exec "$build/dacperf" "$@"
