#!/bin/sh
# Alternating parent/change campaign over cmd/dacperf/bench.sh, for a
# claimed gain in host_us_per_op on one workload:
#
#   sh scripts/campaign.sh PARENT CHANGE OUT WORKLOAD SEEDS PAIRS
#
# PARENT is a checkout of the parent commit (`git clone`, or `git
# archive`), CHANGE one of the change (`git checkout-index -a
# --prefix=DIR/` exports the staged tree), OUT the directory for
# runs.jsonl (one line a run) and compare.txt. Phase A runs PAIRS pairs
# of WORKLOAD at each of SEEDS (a quoted list: "1 23"); phase B the
# other five workloads at the first seed, max(3, PAIRS/2) pairs each;
# phase C one traced pair a workload (exact per-layer counts, peak RSS).
# PHASES (default ABC) picks the phases. The side that runs first
# alternates from pair to pair. Sequential: nothing else may run on the
# host while it measures. Needs jq for compare.txt.
set -u
[ $# -eq 6 ] || { echo "usage: sh scripts/campaign.sh PARENT CHANGE OUT WORKLOAD SEEDS PAIRS" >&2; exit 2; }
P=$1 C=$2 OUT=$3 CLAIM=$4 SEEDS=$5 PAIRS=$6
PHASES=${PHASES:-ABC}
FIRST=${SEEDS%% *}
OTHER=$((PAIRS / 2)); [ "$OTHER" -ge 3 ] || OTHER=3
mkdir -p "$OUT"
: > "$OUT/runs.jsonl"

run() { # side dir workload seed trace
	side=$1; dir=$2; w=$3; seed=$4; tr=$5
	line=$(cd "$dir" && sh cmd/dacperf/bench.sh --workload "$w" --seed "$seed" --seconds 6 --trace "$tr" 2>/dev/null | tail -n 1)
	printf '{"side":"%s","workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$side" "$w" "$seed" "$tr" "$line" >> "$OUT/runs.jsonl"
	echo "$(date +%T) $w seed $seed $side trace$tr load $(cut -d' ' -f1 /proc/loadavg)"
}
pair() { # workload seed index trace
	w=$1; seed=$2; i=$3; tr=$4
	if [ $((i % 2)) -eq 0 ]; then run parent "$P" "$w" "$seed" "$tr"; run change "$C" "$w" "$seed" "$tr"
	else run change "$C" "$w" "$seed" "$tr"; run parent "$P" "$w" "$seed" "$tr"; fi
}
# warm both build caches
(cd "$P" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
(cd "$C" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)

ALL="batch-narrow batch-wide sharded-wide serve-open dyn-storm obs-on"
case $PHASES in *A*)
	echo "== A: $CLAIM, $PAIRS pairs at each seed of $SEEDS"
	for seed in $SEEDS; do
		i=0; while [ $i -lt "$PAIRS" ]; do pair "$CLAIM" "$seed" $i 0; i=$((i+1)); done
	done
esac
case $PHASES in *B*)
	echo "== B: the other workloads, $OTHER pairs each at seed $FIRST"
	for w in $ALL; do
		[ "$w" = "$CLAIM" ] && continue
		i=0; while [ $i -lt "$OTHER" ]; do pair "$w" "$FIRST" $i 0; i=$((i+1)); done
	done
esac
case $PHASES in *C*)
	echo "== C: one traced pair a workload at seed $FIRST"
	i=0; for w in $ALL; do pair "$w" "$FIRST" $i 1; i=$((i+1)); done
esac

echo "== compare.txt"
{
	echo "# untraced pairs: median [q1, q3] per side, pairs in which the change reads lower, of n"
	jq -rs '
		def med: sort | if length == 0 then null elif length % 2 == 1 then .[length/2|floor] else (.[length/2-1] + .[length/2]) / 2 end;
		def q1: sort | .[((length - 1) * 0.25) | floor];
		def q3: sort | .[((length - 1) * 0.75) | ceil];
		[.[] | select(.trace == 0)] | group_by([.workload, .seed])[] |
		. as $g | "\($g[0].workload)@\($g[0].seed)" as $w |
		($g[0].result.metrics | keys[]) as $m |
		([$g[] | select(.side == "parent")] | map(.result.metrics[$m].value)) as $a |
		([$g[] | select(.side == "change")] | map(.result.metrics[$m].value)) as $b |
		([range(0; $a | length) | select($b[.] < $a[.])] | length) as $wins |
		([range(0; $a | length) | select($b[.] == $a[.])] | length) as $ties |
		"\($w)\t\($m)\tparent \($a | med) [\($a | q1), \($a | q3)]\tchange \($b | med) [\($b | q1), \($b | q3)]\tlower in \($wins), equal in \($ties) of \($a | length)"
	' "$OUT/runs.jsonl"
	echo
	echo "# failed ops over every run: $(jq -s 'map(.result.failed) | add' "$OUT/runs.jsonl"); incorrect runs: $(jq -s 'map(select(.result.correct != true)) | length' "$OUT/runs.jsonl")"
	echo
	echo "# traced pair (seed $FIRST): exact counts and memory, parent -> change"
	jq -rs '
		[.[] | select(.trace == 1)] | group_by(.workload)[] |
		(map(select(.side == "parent"))[0].result.metrics) as $a |
		(map(select(.side == "change"))[0].result.metrics) as $b |
		.[0].workload as $w |
		($a | keys[]) as $m |
		select($m | test("^host_|^setup_s$|cpu_us_per_op$") | not) |
		"\($w)\t\($m)\t\($a[$m].value)\t\($b[$m].value)\t\(if $a[$m].value == $b[$m].value then "equal" else "moved" end)"
	' "$OUT/runs.jsonl"
} > "$OUT/compare.txt"
echo "== done"
