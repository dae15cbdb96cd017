#!/usr/bin/env bash
# Runs the repository benchmark (benchmark/run.sh) in alternating pairs on a
# parent commit and on the working tree, appends one JSON line per run to
# OUT, and prints, for every metric of every workload, the parent's first
# quartile, median and third quartile, the working tree's median, the
# median per-pair ratio (working tree / parent), the pairs won and a
# verdict.
#
#   PARENT=<ref> [WORKLOADS=sim-scale,sim-lossy] [PAIRS=10] [RUN_SECONDS=10]
#   [SEED=1] [TRACE=0] [ROUND=main] [OUT=BENCH_pairs.jsonl]
#   [PARENT_DIR=.bench_build/pairs-parent] bash scripts/pairs.sh
#
# The parent is exported with git archive into PARENT_DIR and built there,
# with a .bench_build/ of its own. Pair p runs every workload with seed
# SEED+p-1 on both sides; odd pairs run the parent first, even pairs the
# working tree. Before each workload's pair the side that runs second runs
# that workload once, unrecorded, and in the first pair the side that runs
# first does too, before it: without these runs the first run of a pair
# followed a run of another workload (or its own build) and the second a
# run of its own, and serve read 11-39 % lower ns_per_msg on the second
# side in every pair (BENCH_49_pairs.jsonl). With them every recorded run
# follows a run of the same workload on the other tree. A line has the fields round, side
# ("parent" or "cur"), pair, seed, first, workload, trace and result (the
# benchmark's JSON output). The summary covers the lines of OUT with this ROUND label;
# PAIRS=0 prints it for an existing file without running anything.
# Run it on a quiet machine: anything else on the CPUs lands in the pairs.
#
# Verdicts follow benchmark/README.md § "Comparing a parent and a change",
# with each metric's direction and bound read from BENCHMARK.json: "gain"
# when the working tree wins at least 9 in 10 pairs and its median beats
# the parent's by more than the parent's interquartile range; "worse" when
# the median ratio is past the metric's bound (above 1 + bound for a
# lower-is-better metric); "-" otherwise. Quartiles interpolate linearly
# between order statistics. The script exits 1 if any row reads "worse"
# or any run failed an op.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

workloads=${WORKLOADS:-sim-scale,sim-witness,sim-lossy,sweep-small,live,serve}
pairs=${PAIRS:-10}
secs=${RUN_SECONDS:-10}
seed0=${SEED:-1}
trace=${TRACE:-0}
round=${ROUND:-main}
out=${OUT:-BENCH_pairs.jsonl}
pdir=${PARENT_DIR:-$root/.bench_build/pairs-parent}

if ((pairs > 0)); then
	: "${PARENT:?set PARENT to the commit to compare against}"
	sha=$(git rev-parse --verify "$PARENT^{commit}")
fi
if ((pairs > 0)) && [ "$(cat "$pdir/.pairs-ref" 2>/dev/null)" != "$sha" ]; then
	if [ -e "$pdir" ] && [ ! -f "$pdir/.pairs-ref" ]; then
		echo "pairs: $pdir exists and was not made by this script" >&2
		exit 1
	fi
	rm -rf "$pdir"
	mkdir -p "$pdir"
	git archive "$sha" | tar -x -C "$pdir"
	echo "$sha" >"$pdir/.pairs-ref"
fi

# bench SIDE SEED WORKLOAD runs the benchmark once on SIDE and prints its
# JSON line.
bench() {
	local dir=$root
	[ "$1" = parent ] && dir=$pdir
	(cd "$dir" && bash benchmark/run.sh --workload "$3" --seed "$2" \
		--seconds "$secs" --trace "$trace" | tail -n 1)
}

# run SIDE PAIR SEED FIRST WORKLOAD appends one run's line to OUT.
run() {
	local res
	res=$(bench "$1" "$3" "$5")
	jq -cn --arg round "$round" --arg side "$1" --argjson pair "$2" \
		--argjson seed "$3" --arg first "$4" --arg workload "$5" \
		--argjson trace "$trace" --argjson result "$res" \
		'{round: $round, side: $side, pair: $pair, seed: $seed, first: $first,
		  workload: $workload, trace: $trace, result: $result}' >>"$out"
	echo "pair $2 $5 $1: $(jq -c '.metrics | map_values(.value)' <<<"$res")" >&2
}

IFS=, read -r -a wls <<<"$workloads"
for ((p = 1; p <= pairs; p++)); do
	seed=$((seed0 + p - 1))
	first=parent second=cur
	if ((p % 2 == 0)); then first=cur second=parent; fi
	for w in "${wls[@]}"; do
		if ((p == 1)); then bench "$first" "$seed" "$w" >/dev/null; fi
		bench "$second" "$seed" "$w" >/dev/null
		run "$first" "$p" "$seed" "$first" "$w"
		run "$second" "$p" "$seed" "$first" "$w"
	done
done

# Summary: per (workload, metric), the parent's quartiles, both medians,
# the median of the per-pair ratios cur/parent, the pairs the working tree
# won, the workload's failed ops and the verdict.
jq -rs --arg round "$round" --slurpfile spec "$root/BENCHMARK.json" '
  def quantile($q): sort | ((length - 1) * $q) as $h | ($h | floor) as $i
    | if $i + 1 < length then .[$i] + ($h - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
  ($spec[0].end_to_end + $spec[0].per_layer | INDEX(.name)) as $defs
  | [.[] | select(.round == $round)]
  | group_by(.workload)[]
  | . as $runs
  | ($runs | map(select(.side == "parent")) | INDEX(.pair | tostring)) as $par
  | ($runs | map(select(.side == "cur")) | INDEX(.pair | tostring)) as $cur
  | [$par | keys[] | select($cur[.])] as $ps
  | ($runs | map(.result.failed) | add) as $failed
  | ($par[$ps[0]].result.metrics | keys[]) as $m
  | ($defs[$m].better // "lower") as $better
  | [$ps[] | {p: $par[.].result.metrics[$m].value, c: $cur[.].result.metrics[$m].value}] as $v
  | ($v | map(.p)) as $pv
  | ($pv | quantile(0.5)) as $pmed | ($v | map(.c) | quantile(0.5)) as $cmed
  | (($pv | quantile(0.75)) - ($pv | quantile(0.25))) as $iqr
  | ($v | map(if .p == 0 then 1 else .c / .p end) | quantile(0.5)) as $ratio
  | (if $better == "lower" then 1 else -1 end) as $sign
  | ($v | map(select($sign * (.p - .c) > 0)) | length) as $won
  | [$runs[0].workload, $m, ($pv | quantile(0.25)), $pmed, ($pv | quantile(0.75)), $cmed, $ratio,
     "\($won) of \($v | length)", $failed,
     if $won * 10 >= 9 * ($v | length) and $sign * ($pmed - $cmed) > $iqr then "gain"
     elif $defs[$m].bound != null and $sign * ($ratio - 1) > $defs[$m].bound then "worse"
     else "-" end]
  | @tsv' "$out" |
	awk -F'\t' 'BEGIN { printf "%-12s %-26s %11s %11s %11s %11s %8s %9s %6s %7s\n", "workload", "metric", "parent q1", "parent", "parent q3", "cur", "ratio", "won", "failed", "verdict" }
	{ printf "%-12s %-26s %11.4g %11.4g %11.4g %11.4g %8.3f %9s %6d %7s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10
	  if ($10 == "worse" || $9 > 0) bad = 1 }
	END { if (bad) { print "pairs: a row reads worse or a run failed an op" > "/dev/stderr"; exit 1 } }'
