#!/bin/sh
# Alternating parent/change campaign: per-simulation state is guarded by
# the simulation's running slot, so the kernel takes no lock per call,
# the components drop their mutexes, and the message and scheduler-answer
# pools become free lists their instance owns.
# Claimed: batch-narrow host_us_per_op falls (ten pairs). Held: every
# virt_* value and exact count on all six workloads, and every
# workload's allocations. The traced pairs give the per-layer split
# (*.cpu_us_per_op, host.gc_cpu_us_per_op) that names the layers that
# moved.
# Sequential; nothing else may run on the host. P is a `git clone` of the
# parent commit, C the staged change (`git checkout-index -a --prefix=`),
# OUT takes runs.jsonl (one line a run) and compare.txt.
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

echo "== A: batch-narrow, ten pairs on ten seeds"
i=0; for seed in 4101 4102 4103 4104 4105 4106 4107 4108 4109 4110; do pair batch-narrow $seed $i 0; i=$((i+1)); done
echo "== B: the other five workloads, three pairs on three seeds"
for w in batch-wide sharded-wide serve-open dyn-storm obs-on; do
	i=0; for seed in 4101 4102 4103; do pair $w $seed $i 0; i=$((i+1)); done
done
echo "== C: traced pairs (exact counts, per-layer CPU): three on batch-narrow, one on each other workload"
i=0; for seed in 4111 4112 4113; do pair batch-narrow $seed $i 1; i=$((i+1)); done
i=0; for w in batch-wide sharded-wide serve-open dyn-storm obs-on; do pair $w 4111 $i 1; i=$((i+1)); done

echo "== compare.txt"
{
	echo "# untraced pairs: median [q1, q3] per side, pairs in which the change reads lower, of n"
	jq -rs '
		def med: sort | if length == 0 then null elif length % 2 == 1 then .[length/2|floor] else (.[length/2-1] + .[length/2]) / 2 end;
		def q1: sort | .[((length - 1) * 0.25) | floor];
		def q3: sort | .[((length - 1) * 0.75) | ceil];
		[.[] | select(.trace == 0)] | group_by(.workload)[] |
		. as $g | $g[0].workload as $w |
		($g[0].result.metrics | keys[]) as $m |
		([$g[] | select(.side == "parent")] | sort_by(.seed) | map(.result.metrics[$m].value)) as $a |
		([$g[] | select(.side == "change")] | sort_by(.seed) | map(.result.metrics[$m].value)) as $b |
		([range(0; $a | length) | select($b[.] < $a[.])] | length) as $wins |
		([range(0; $a | length) | select($b[.] == $a[.])] | length) as $ties |
		"\($w)\t\($m)\tparent \($a | med) [\($a | q1), \($a | q3)]\tchange \($b | med) [\($b | q1), \($b | q3)]\tlower in \($wins), equal in \($ties) of \($a | length)"
	' "$OUT/runs.jsonl"
	echo
	echo "# failed ops over every run: $(jq -s 'map(.result.failed) | add' "$OUT/runs.jsonl"); incorrect runs: $(jq -s 'map(select(.result.correct != true)) | length' "$OUT/runs.jsonl")"
	echo
	echo "# traced pairs: per-layer CPU µs per op, median per side (parent -> change) over the workload's traced pairs"
	jq -rs '
		def med: sort | if length == 0 then null elif length % 2 == 1 then .[length/2|floor] else (.[length/2-1] + .[length/2]) / 2 end;
		[.[] | select(.trace == 1)] | group_by(.workload)[] |
		. as $g | $g[0].workload as $w |
		($g[0].result.metrics | keys[] | select(endswith("cpu_us_per_op"))) as $m |
		([$g[] | select(.side == "parent") | .result.metrics[$m].value] | med) as $a |
		([$g[] | select(.side == "change") | .result.metrics[$m].value] | med) as $b |
		"\($w)\t\($m)\t\($a * 100 | round / 100)\t\($b * 100 | round / 100)\t\(($b - $a) * 100 | round / 100)"
	' "$OUT/runs.jsonl"
	echo
	echo "# traced pairs: exact counts and memory, parent -> change (first traced seed)"
	jq -rs '
		[.[] | select(.trace == 1)] | group_by(.workload)[] |
		(min_by(.seed).seed) as $s |
		(map(select(.side == "parent" and .seed == $s))[0].result.metrics) as $a |
		(map(select(.side == "change" and .seed == $s))[0].result.metrics) as $b |
		.[0].workload as $w |
		("sim.events netsim.msgs netsim.dropped maui.cycles maui.placed maui.backfill_hits maui.alloc_accept_ratio pbs.submits pbs.jobs_done pbs.rpc_batches pbs.dyn_granted pbs.dyn_rejected pbs.server_errors pbs.records_purged dac.attach dac.detach audit.events audit.breaches trace.spans telemetry.windows host.peak_rss_mb host.alloc_kb_per_op host.gc_cycles" | split(" ")[]) as $m |
		select($a[$m] != null) |
		"\($w)\t\($m)\t\($a[$m].value)\t\($b[$m].value)\t\(if $a[$m].value == $b[$m].value then "equal" else "moved" end)"
	' "$OUT/runs.jsonl"
} > "$OUT/compare.txt"
echo "== done"
