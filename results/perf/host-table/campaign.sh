#!/bin/sh
# Alternating parent/change pairs of the benchmark command, one JSON line
# per run appended to OUT. P and C are checkouts of the parent and the
# change; odd pairs run the parent first, even pairs the change.
#   P=../parent C=../change sh campaign.sh OUT WORKLOAD SEED PAIRS TRACE
set -eu
out=$1 w=$2 seed=$3 n=$4 tr=$5
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then order="$P $C"; else order="$C $P"; fi
	for dir in $order; do
		side=change
		[ "$dir" = "$P" ] && side=parent
		r=$(cd "$dir" && sh cmd/dacperf/bench.sh --workload "$w" --seed "$seed" --seconds 6 --trace "$tr" 2>/dev/null | tail -1)
		echo "{\"side\":\"$side\",\"workload\":\"$w\",\"seed\":$seed,\"pair\":$i,\"trace\":$tr,\"r\":$r}" >>"$out"
	done
done
