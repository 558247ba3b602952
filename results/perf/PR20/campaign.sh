#!/bin/sh
# Alternating parent/change benchmark campaign. Sequential; nothing else may run.
set -u
P=/root/scratch/parent
C=/root/scratch/change
OUT=/root/scratch/perf
mkdir -p $OUT/pairs $OUT/reports
run() { # side dir workload seed trace
  side=$1; dir=$2; w=$3; seed=$4; tr=$5
  f=$OUT/pairs/$w-seed$seed-$side-trace$tr.json
  (cd $dir && sh cmd/dacperf/bench.sh --workload $w --seed $seed --seconds 6 --trace $tr 2>/dev/null | tail -n 1) > $f
  echo "$(date +%T) $w seed $seed $side trace$tr load $(cut -d' ' -f1 /proc/loadavg): $(head -c 200 $f)"
}
pair() { # workload seed index trace
  w=$1; seed=$2; i=$3; tr=$4
  if [ $((i % 2)) -eq 0 ]; then run parent $P $w $seed $tr; run change $C $w $seed $tr
  else run change $C $w $seed $tr; run parent $P $w $seed $tr; fi
}
# warm both build caches
(cd $P && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
(cd $C && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
echo "== phase A: dyn-storm 10 pairs (the claim: host_allocs_per_op)"
i=0; for seed in 81 82 83 84 85 86 87 88 89 90; do pair dyn-storm $seed $i 0; i=$((i+1)); done
echo "== phase B: other workloads 6 pairs"
for w in batch-narrow batch-wide sharded-wide serve-open obs-on; do
  i=0; for seed in 91 92 93 94 95 96; do pair $w $seed $i 0; i=$((i+1)); done
done
echo "== phase C: traced pairs"
i=0; for w in dyn-storm batch-wide serve-open; do pair $w 97 $i 1; i=$((i+1)); done
echo "== phase D: full reports"
for k in 1 2 3 4; do
  if [ $((k % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for s in $order; do
    if [ $s = a ]; then dir=$P; else dir=$C; fi
    (cd $dir && .bench_build/dacperf -seed 98 -out $OUT/reports/seed98-$s$k.json > $OUT/reports/seed98-$s$k.txt 2>&1)
    echo "$(date +%T) report $s$k rc=$? load $(cut -d' ' -f1 /proc/loadavg)"
  done
done
echo "== done"
