#!/bin/sh
# Follow-up pairs after campaign.sh: ten alternating pairs of one
# workload on fresh seeds, appended to $OUT/$W-extra.jsonl. Same
# conventions as campaign.sh (P, C, OUT; sequential, nothing else on the
# host).
set -u
P=${P:?set P to a checkout of the parent commit}
C=${C:?set C to a checkout of the change}
OUT=${OUT:?set OUT to a directory}
W=${W:?set W to a workload}
SEEDS=${SEEDS:?set SEEDS to the seed list}
TRACE=${TRACE:-0}
f="$OUT/$W-extra.jsonl"
run() { # side dir seed
	line=$(cd "$2" && sh cmd/dacperf/bench.sh --workload "$W" --seed "$3" --seconds 6 --trace "$TRACE" 2>/dev/null | tail -n 1)
	printf '{"side":"%s","workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$1" "$W" "$3" "$TRACE" "$line" >> "$f"
	echo "$(date +%T) $W seed $3 $1 trace$TRACE"
}
i=0
for seed in $SEEDS; do
	if [ $((i % 2)) -eq 0 ]; then run parent "$P" "$seed"; run change "$C" "$seed"
	else run change "$C" "$seed"; run parent "$P" "$seed"; fi
	i=$((i+1))
done
