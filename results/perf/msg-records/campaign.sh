#!/bin/sh
# Alternating parent/change campaign for pbs messages as free-list
# records. Sequential; nothing else may run on the host. P is a checkout
# of the parent commit, C one of the change; OUT takes runs.jsonl (one
# line a run) and compare.txt.
#   A: batch-narrow at seed 1, ten pairs (the claimed host_allocs_per_op;
#      setup_s and host_us_per_op reported, not claimed)
#   B: batch-narrow at seed 23, ten pairs (the claim on a second seed)
#   C: the five other workloads at seed 1, five pairs each (reported)
#   D: one traced pair a workload at seed 1 (the exact counts)
set -u
P=${P:?set P to a checkout of the parent commit}
C=${C:?set C to a checkout of the change}
OUT=${OUT:?set OUT to a directory for runs.jsonl and compare.txt}
mkdir -p "$OUT"
: > "$OUT/runs.jsonl"

run() { # side dir workload seed trace
	side=$1; dir=$2; w=$3; seed=$4; tr=$5
	line=$(cd "$dir" && sh cmd/dacperf/bench.sh --workload "$w" --seed "$seed" --seconds 6 --trace "$tr" 2>/dev/null | tail -n 1)
	printf '{"side":"%s","workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$side" "$w" "$seed" "$tr" "$line" >> "$OUT/runs.jsonl"
	echo "$(date +%T) $w seed $seed $side trace$tr"
}
pair() { # workload seed index trace: the side that runs first alternates
	if [ $(($3 % 2)) -eq 0 ]; then run parent "$P" "$1" "$2" "$4"; run change "$C" "$1" "$2" "$4"
	else run change "$C" "$1" "$2" "$4"; run parent "$P" "$1" "$2" "$4"; fi
}
# warm both build caches
(cd "$P" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)
(cd "$C" && sh cmd/dacperf/bench.sh --workload batch-narrow --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1)

for i in 0 1 2 3 4 5 6 7 8 9; do pair batch-narrow 1 $i 0; done
for i in 0 1 2 3 4 5 6 7 8 9; do pair batch-narrow 23 $i 0; done
for w in batch-wide sharded-wide serve-open dyn-storm obs-on; do
	for i in 0 1 2 3 4; do pair $w 1 $i 0; done
done
i=0; for w in dyn-storm batch-narrow batch-wide sharded-wide serve-open obs-on; do pair $w 1 $i 1; i=$((i+1)); done

{
	echo "# untraced runs: median [q1, q3] per side; pairs in which the change reads lower, equal; of n"
	jq -rs '
		def med: sort | if length % 2 == 1 then .[length/2|floor] else (.[length/2-1] + .[length/2]) / 2 end;
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
	echo "# traced pair (seed 1): exact counts, parent -> change"
	jq -rs '
		[.[] | select(.trace == 1)] | group_by(.workload)[] |
		(map(select(.side == "parent"))[0].result.metrics) as $a |
		(map(select(.side == "change"))[0].result.metrics) as $b |
		.[0].workload as $w |
		("sim.events netsim.msgs netsim.dropped maui.cycles maui.placed pbs.submits pbs.jobs_done pbs.dyn_granted pbs.dyn_rejected pbs.server_errors dac.attach dac.detach audit.events audit.breaches trace.spans telemetry.windows" | split(" ")[]) as $m |
		select($a[$m] != null) |
		"\($w)\t\($m)\t\($a[$m].value)\t\($b[$m].value)\t\(if $a[$m].value == $b[$m].value then "equal" else "moved" end)"
	' "$OUT/runs.jsonl"
} > "$OUT/compare.txt"
echo "== done"
