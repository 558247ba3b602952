#!/bin/sh
# Reproduce every figure and ablation of the paper's evaluation and
# store the deterministic series under results/ (tables + CSV), after
# the checks and the test suite and before the benchmark harness,
# whose host-dependent output goes to the terminal only. Stdlib Go
# only; no network needed.
set -eu

cd "$(dirname "$0")/.."
mkdir -p results

echo "==> formatting, vet, and race-detector checks"
sh scripts/check.sh

echo "==> unit, integration, and property tests"
go test ./... -count=1

echo "==> figures (10 trials, as in the paper)"
go run ./cmd/dacsim -fig all -trials 10 | tee results/figures.txt
for fig in 7a 7b 8 9; do
    go run ./cmd/dacsim -fig "$fig" -trials 10 -csv > "results/fig$fig.csv"
done

echo "==> figures with ±10% seeded jitter (trial variance)"
go run ./cmd/dacsim -fig all -trials 10 -jitter 0.1 > results/figures-jitter.txt

echo "==> benchmark harness"
go test -bench=. -benchmem -benchtime=1x -count=1 .

echo "==> done; see results/"
