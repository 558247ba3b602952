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
echo "== phase A: obs-on 10 pairs"
i=0; for seed in 51 52 53 54 55 56 57 58 59 60; do pair obs-on $seed $i 0; i=$((i+1)); done
echo "== phase B: other workloads 6 pairs"
for w in batch-narrow batch-wide sharded-wide serve-open dyn-storm; do
  i=0; for seed in 61 62 63 64 65 66; do pair $w $seed $i 0; i=$((i+1)); done
done
echo "== phase C: traced obs-on"
pair obs-on 67 0 1
echo "== phase D: full reports"
for k in 1 2 3 4 5 6 7 8 9 10; do
  if [ $((k % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for s in $order; do
    if [ $s = a ]; then dir=$P; else dir=$C; fi
    (cd $dir && .bench_build/dacperf -seed 68 -out $OUT/reports/seed68-$s$k.json > $OUT/reports/seed68-$s$k.txt 2>&1)
    echo "$(date +%T) report $s$k rc=$? load $(cut -d' ' -f1 /proc/loadavg)"
  done
done
echo "== done"
