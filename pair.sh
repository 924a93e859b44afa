#!/usr/bin/env bash
# pair.sh: is this checkout faster, slower or the same as a base commit?
#
# Builds <base-ref> in a git worktree under .bench_build/, then runs
# `bash benchmark/run.sh` on the base and on this checkout (with any
# uncommitted changes) N times each, alternating which side runs first,
# and compares each pair with `benchmark/run.sh -compare base head`. It
# prints every pair's verdicts with both sides' noise probes, then one
# table: per workload x end-to-end metric, the median of the base's and
# this checkout's per-pair medians and every pair's verdict.
#
# Exit status: 1 if any pair reads `worse` on any row, a cell's digest
# differs (the two sides simulate different things, so their times do
# not compare), or an operation failed; 0 otherwise. An `unresolved`
# row — the runs' spread is wider than the metric's bound — is reported
# but does not fail. 2 on a usage error.
#
#   bash pair.sh HEAD~1                           # all four workloads, 3 pairs
#   bash pair.sh main -workload hogs_segments -pairs 5
set -euo pipefail
cd "$(dirname "$0")"

usage() {
	echo "usage: bash pair.sh <base-ref> [-workload W] [-pairs N]" >&2
	exit 2
}
[[ $# -ge 1 && $1 != -* ]] || usage
base_ref=$1
shift
workload=
pairs=3
while [[ $# -gt 0 ]]; do
	case $1 in
	-workload) [[ $# -ge 2 ]] || usage; workload=$2; shift 2 ;;
	-pairs) [[ $# -ge 2 && $2 =~ ^[1-9][0-9]*$ ]] || usage; pairs=$2; shift 2 ;;
	*) usage ;;
	esac
done

base=$(git rev-parse --verify --quiet "$base_ref^{commit}") || {
	echo "pair.sh: $base_ref is not a commit" >&2
	exit 2
}
root=$PWD
tree=$root/.bench_build/pair-base-${base:0:12}
out=$root/.bench_build/pair-$$
mkdir -p "$out"
cleanup() {
	git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --detach --quiet "$tree" "$base"

args=()
[[ -n $workload ]] && args=(-workload "$workload")

# side <dir> <result.json>: one full benchmark run, its stdout kept for
# the noise probe lines.
side() {
	(cd "$1" && bash benchmark/run.sh "${args[@]}" -out "$2") >"${2%.json}.txt"
}

# probes <run.txt>: each workload's median noise probe, from the printed
# report.
probes() {
	awk '/^workload / { w = $2; sub(/:$/, "", w) }
		/^  noise probe / { printf "%s%s %s ms", sep, w, $3; sep = ", " }' "$1"
}

status=0
compares=()
for ((i = 1; i <= pairs; i++)); do
	b=$out/base-$i.json h=$out/head-$i.json
	if ((i % 2)); then
		order="base first"
		side "$tree" "$b"
		side "$root" "$h"
	else
		order="head first"
		side "$root" "$h"
		side "$tree" "$b"
	fi
	echo "== pair $i of $pairs ($order); noise probe base: $(probes "${b%.json}.txt"); head: $(probes "${h%.json}.txt")"
	compares+=("$out/compare-$i.txt")
	bash benchmark/run.sh -compare "$b" "$h" | tee "${compares[-1]}" || true
	if grep -Eq ' worse$|digest differs|ops failed' "${compares[-1]}"; then
		status=1
	fi
done

echo
echo "== $pairs alternating pair(s), base ${base:0:12} vs this checkout (medians of the per-pair medians)"
awk '
	FNR == 1 { next }
	NF == 9 && $7 ~ /%$/ {
		key = $1 " " $2
		if (!(key in seen)) { seen[key] = 1; order[++n] = key }
		a[key, FILENAME] = $3; b[key, FILENAME] = $5
		v[key] = v[key] " " $9
		if ($9 == "unresolved") unresolved++
	}
	function med(arr, key,    i, j, m, t, x, f) {
		m = 0
		for (f in files) x[++m] = arr[key, f]
		for (i = 2; i <= m; i++) for (j = i; j > 1 && x[j-1] + 0 > x[j] + 0; j--) { t = x[j]; x[j] = x[j-1]; x[j-1] = t }
		return m % 2 ? x[(m + 1) / 2] : (x[m / 2] + x[m / 2 + 1]) / 2
	}
	{ files[FILENAME] = 1 }
	END {
		printf "%-14s %-13s %12s %12s %7s  %s\n", "workload", "metric", "base", "head", "delta", "verdicts"
		for (k = 1; k <= n; k++) {
			split(order[k], kw, " ")
			ma = med(a, order[k]); mb = med(b, order[k])
			printf "%-14s %-13s %12.6g %12.6g %+6.1f%% %s\n", kw[1], kw[2], ma, mb, ma ? 100 * (mb / ma - 1) : 0, v[order[k]]
		}
		if (unresolved) printf "%d verdict(s) unresolved: the runs spread wider than the bound\n", unresolved
	}' "${compares[@]}"
if ((status)); then
	echo "pair.sh: worse, a changed digest or a failed operation (see the pairs above)"
fi
exit $status
