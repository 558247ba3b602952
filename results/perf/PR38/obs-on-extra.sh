#!/bin/sh
# Six more alternating obs-on pairs (seeds 715-720) after campaign.sh's
# four read the change slower in 4 of 4: the change touches no code the
# faithful path runs per event, so this checks whether that was drift.
# Same P and C as campaign.sh; writes obs-on-extra.jsonl beside OUT.
set -u
P=${P:?set P to a checkout of the parent commit}
C=${C:?set C to a checkout of the change}
OUT=${OUT:?set OUT to the campaign's directory}
: > "$OUT/obs-on-extra.jsonl"
run() { # side dir seed
	line=$(cd "$2" && sh cmd/dacperf/bench.sh --workload obs-on --seed "$3" --seconds 6 --trace 0 2>/dev/null | tail -n 1)
	printf '{"side":"%s","workload":"obs-on","seed":%s,"trace":0,"result":%s}\n' "$1" "$3" "$line" >> "$OUT/obs-on-extra.jsonl"
}
i=0; for seed in 715 716 717 718 719 720; do
	if [ $((i % 2)) -eq 0 ]; then run parent "$P" $seed; run change "$C" $seed
	else run change "$C" $seed; run parent "$P" $seed; fi
	i=$((i+1))
done
