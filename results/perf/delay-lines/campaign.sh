#!/bin/sh
# Alternating parent/change campaign for the delay-line event queue, the
# pair state kept on its handle and the block accounting log. Claim:
# batch-wide host_us_per_op falls (ten pairs at seed 1, ten at seed 23);
# the other five workloads must not move. Sequential; nothing else may
# run on the host. P is a `git clone` of the parent commit, C the staged
# change (`git checkout-index -a --prefix=`), OUT takes runs.jsonl (one
# line a run) and compare.txt. PHASES (default ABC) picks the phases to run.
set -u
P=${P:?set P to a checkout of the parent commit}
C=${C:?set C to a checkout of the change}
OUT=${OUT:?set OUT to a directory for runs.jsonl and compare.txt}
PHASES=${PHASES:-ABC}
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
# warm both build caches
(cd "$P" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
(cd "$C" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)

case $PHASES in *A*)
	echo "== A: batch-wide, ten pairs at seed 1 and ten at seed 23"
	for seed in 1 23; do
		i=0; while [ $i -lt 10 ]; do pair batch-wide $seed $i 0; i=$((i+1)); done
	done
esac
case $PHASES in *B*)
	echo "== B: the other five workloads, six pairs each at seed 1"
	for w in dyn-storm serve-open batch-narrow sharded-wide obs-on; do
		i=0; while [ $i -lt 6 ]; do pair $w 1 $i 0; i=$((i+1)); done
	done
esac
case $PHASES in *C*)
	echo "== C: one traced pair a workload (exact per-layer counts, peak RSS)"
	i=0; for w in dyn-storm batch-narrow batch-wide sharded-wide serve-open obs-on; do pair $w 1 $i 1; i=$((i+1)); done
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
	echo "# traced pair (seed 1): exact counts and memory, parent -> change"
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
