#!/bin/sh
# Alternating parent/change campaign for the O(changed) scheduler round.
# Sequential; nothing else may run on the host. P: parent checkout, C:
# change checkout, OUT: directory for runs.jsonl and compare.txt.
set -u
P=${P:?}; C=${C:?}; OUT=${OUT:?}
mkdir -p "$OUT"
: > "$OUT/runs.jsonl"
run() { # side dir workload seed trace
	side=$1; dir=$2; w=$3; seed=$4; tr=$5
	line=$(cd "$dir" && sh cmd/dacperf/bench.sh --workload "$w" --seed "$seed" --seconds 6 --trace "$tr" 2>/dev/null | tail -n 1)
	printf '{"side":"%s","workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$side" "$w" "$seed" "$tr" "$line" >> "$OUT/runs.jsonl"
	echo "$(date +%T) $w seed $seed $side trace$tr load $(cut -d' ' -f1 /proc/loadavg)"
}
pair() { # workload seed index trace: the side that runs first alternates
	w=$1; seed=$2; i=$3; tr=$4
	if [ $((i % 2)) -eq 0 ]; then run parent "$P" "$w" "$seed" "$tr"; run change "$C" "$w" "$seed" "$tr"
	else run change "$C" "$w" "$seed" "$tr"; run parent "$P" "$w" "$seed" "$tr"; fi
}
(cd "$P" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
(cd "$C" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
echo "== A: dyn-storm, ten pairs on ten seeds"
i=0; for seed in 601 602 603 604 605 606 607 608 609 610; do pair dyn-storm $seed $i 0; i=$((i+1)); done
echo "== B: the other five workloads, six pairs each"
for w in batch-narrow batch-wide sharded-wide serve-open obs-on; do
	i=0; for seed in 611 612 613 614 615 616; do pair $w $seed $i 0; i=$((i+1)); done
done
echo "== C: traced pairs: three of dyn-storm, one of each other workload"
i=0; for seed in 617 618 619; do pair dyn-storm $seed $i 1; i=$((i+1)); done
i=1; for w in batch-narrow batch-wide sharded-wide serve-open obs-on; do pair $w 617 $i 1; i=$((i+1)); done
echo "== done"
