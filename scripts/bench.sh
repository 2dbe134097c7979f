#!/bin/sh
# bench.sh runs the repository's benchmark, perfbench (perfbench/main.go,
# BENCHMARK.json), in one of two modes. It needs git and jq.
#
#   scripts/bench.sh record
#       Runs the three workloads timed (seed 1, 5 s each) and the
#       schemes workload once traced, and writes perfbench's machine
#       stamp and each run's JSON result line to BENCH_perfbench.json,
#       the committed throughput trajectory (`make bench`).
#
#   scripts/bench.sh compare <ref>
#       The throughput gate (`make bench-check`, CI's bench-regression
#       job). Checks <ref> out in a git worktree under .bench_build and
#       times the schemes workload there and in this tree: three pairs,
#       seeds 1-3, alternating which tree runs first. Fails unless every
#       run is correct with no failed operation and this tree's median
#       sim_kips is at least 0.90 of <ref>'s. A <ref> without perfbench
#       has nothing to compare against and passes with a notice.
#
# Each run's full table is kept in .bench_build/bench-*.out.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build

# run DIR NAME ARGS... runs perfbench with ARGS in the checkout DIR,
# keeps its output in .bench_build/bench-NAME.out, checks that the run
# is correct with no failed operation, and prints its JSON result line.
run() {
	dir=$1 out=$root/.bench_build/bench-$2.out
	shift 2
	if ! (cd "$dir" && bash perfbench/run.sh "$@") >"$out"; then
		echo "bench: perfbench $* failed in $dir (output in $out)" >&2
		return 1
	fi
	line=$(tail -n 1 "$out")
	if ! printf '%s\n' "$line" | jq -e '.correct and .failed == 0' >/dev/null; then
		grep -e '^operations:' -e '^  failed:' "$out" >&2 || true
		echo "bench: perfbench $* in $dir was not correct (output in $out)" >&2
		return 1
	fi
	printf '%s\n' "$line"
}

# record_run WORKLOAD TRACE appends one seed-1 run of this tree to the
# record.
record_run() {
	echo "bench: $1, trace $2" >&2
	line=$(run "$root" "$1-trace$2" --workload "$1" --seed 1 --seconds 5 --trace "$2")
	printf '%s\n' "$line" | jq -c --arg w "$1" --argjson t "$2" \
		'{workload: $w, seed: 1, seconds: 5, trace: $t, result: .}' >>"$runs"
}

record() {
	runs=$root/.bench_build/bench-record.jsonl
	: >"$runs"
	record_run schemes 0
	record_run suite-warm 0
	record_run sweep 0
	record_run schemes 1
	machine=$(sed -n 's/^machine: //p' .bench_build/bench-schemes-trace0.out)
	jq -s --arg m "$machine" '{benchmark: "perfbench", machine: $m, runs: .}' "$runs" >BENCH_perfbench.json
	echo "bench: wrote BENCH_perfbench.json" >&2
}

# median prints the middle of three numbers.
median() {
	printf '%s\n' "$@" | jq -s 'sort | .[1]'
}

compare() {
	base=$(git rev-parse --verify "$1^{commit}")
	if ! git cat-file -e "$base:perfbench/run.sh" 2>/dev/null; then
		echo "bench: notice: $1 has no perfbench, so there is nothing to compare against; passing"
		return 0
	fi
	wt=$root/.bench_build/base
	git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git worktree prune
	git worktree add --quiet --detach "$wt" "$base"
	trap 'git worktree remove --force "$wt"' EXIT
	# perfbench/run.sh keeps Go's build cache under the checkout's
	# .bench_build. Linking the base's cache to this tree's means the
	# standard library is compiled once, not once per comparison; the
	# cache is content-addressed, so sharing it is safe.
	mkdir -p .bench_build/gocache "$wt/.bench_build"
	ln -s "$root/.bench_build/gocache" "$wt/.bench_build/gocache"
	echo "bench: schemes sim_kips of this tree (head) against $1 (base, $base)"
	bases= heads=
	for seed in 1 2 3; do
		order="base head"
		if [ "$seed" = 2 ]; then
			order="head base"
		fi
		for side in $order; do
			dir=$root
			if [ "$side" = base ]; then
				dir=$wt
			fi
			line=$(run "$dir" "$side-seed$seed" --workload schemes --seed "$seed" --seconds 5 --trace 0)
			kips=$(printf '%s\n' "$line" | jq '.metrics.sim_kips.value')
			case $side in
			base) b=$kips bases="$bases $kips" ;;
			head) h=$kips heads="$heads $kips" ;;
			esac
		done
		jq -nr --argjson s "$seed" --argjson b "$b" --argjson h "$h" --arg first "${order%% *}" \
			'"pair \($s) (\($first) first): base \($b | round) kIPS, head \($h | round) kIPS, head/base \($h / $b * 1000 | round / 1000)"'
	done
	mb=$(median $bases) mh=$(median $heads)
	jq -nr --argjson b "$mb" --argjson h "$mh" \
		'"median: base \($b | round) kIPS, head \($h | round) kIPS, head/base \($h / $b * 1000 | round / 1000); the gate is 0.9"'
	if ! jq -en --argjson b "$mb" --argjson h "$mh" '$h >= 0.9 * $b' >/dev/null; then
		echo "bench: FAIL: schemes sim_kips is more than 10% below $1" >&2
		return 1
	fi
	echo "bench: pass"
}

case ${1-} in
record)
	[ $# -eq 1 ] || { echo "usage: scripts/bench.sh record" >&2; exit 2; }
	record
	;;
compare)
	[ $# -eq 2 ] || { echo "usage: scripts/bench.sh compare <ref>" >&2; exit 2; }
	compare "$2"
	;;
*)
	echo "usage: scripts/bench.sh record | compare <ref>" >&2
	exit 2
	;;
esac
