#!/usr/bin/env bash
# census.sh: what in this repo does no program reach?
#
# Builds cmd/sweep, cmd/schedtrace and the two examples/ programs
# instrumented over every package (-covermode=count) and runs, under one
# GOCOVERDIR: the quick catalog with -json (from inside the output
# directory, so the committed BENCH_sweep.json is left alone), a fuzz
# batch with hotplug storms, schedtrace (o1 through a hotplug cycle, elsc
# with its table dump) and each example. Offline; about 4 minutes on two
# cores.
#
# By default it prints every function left at 0% (file:line and name,
# sorted) on stdout and each package's statement coverage on stderr. A
# function listed may still be reached by a test (the root package's
# Example functions among them), or be a panic-only guard: the list is
# where to look, not what to delete.
#
# -blocks audits the core and the traffic that drives it,
# internal/{sim,kernel,klist,task,sched,sched/*,ipc,workload,workload/*}:
# it prints every zero-count block as "file:line: function: source line",
# marks each one census.allow does not name, and exits 1 if there is one.
# census.allow says why each unreached block stays, one tab-separated line
# per entry: file, function (Type.method for a method), the block's first
# source line trimmed or * for every block of the function, and the
# reason. TestCensusAllowNamesLiveCode holds its entries to the source.
#
#   bash census.sh                # work in a fresh temp dir
#   bash census.sh /some/dir      # keep binaries and coverage data there
#   bash census.sh -blocks [dir]  # audit core and workloads against census.allow
set -euo pipefail
cd "$(dirname "$0")"
blocks=false
if [[ ${1:-} == -blocks ]]; then
	blocks=true
	shift
fi
out=${1:-$(mktemp -d)}
mkdir -p "$out/bin" "$out/cov"
out=$(cd "$out" && pwd)
build() { go build -cover -covermode=count -coverpkg=./... -o "$out/bin/$1" "$2"; }
for cmd in sweep schedtrace; do
	build "$cmd" "./cmd/$cmd"
done
examples=(chatserver priorities)
for ex in "${examples[@]}"; do
	build "example-$ex" "./examples/$ex"
done
export GOCOVERDIR=$out/cov
(cd "$out" && bin/sweep -quick -exp all -json >/dev/null)
"$out/bin/sweep" -exp fuzz -fuzzn 60 >/dev/null
"$out/bin/schedtrace" -sched o1 -cpus 8 -domains 2 -tasks 12 -hotplug 3 -n 0 -watchdog >/dev/null
"$out/bin/schedtrace" -sched elsc -cpus 2 -table >/dev/null
for ex in "${examples[@]}"; do
	"$out/bin/example-$ex" >/dev/null
done
echo "coverage data kept in $out" >&2
if ! $blocks; then
	go tool covdata func -i="$out/cov" | awk '$NF == "0.0%" { print $1, $2 }' | sort
	go tool covdata percent -i="$out/cov" >&2
	exit 0
fi
go tool covdata textfmt -i="$out/cov" -o "$out/blocks.txt"
awk -v allow=census.allow '
# load reads file f into src[f, 1..n].
function load(f,   line, n) {
	while ((getline line < f) > 0)
		src[f, ++n] = line
	close(f)
	loaded[f] = 1
}
function trim(s) {
	sub(/^[ \t]+/, "", s)
	sub(/[ \t]+$/, "", s)
	return s
}
# funcAt names the function declared at or above line l of f.
function funcAt(f, l,   i, s, recv, n, parts) {
	for (i = l; i > 0; i--) {
		s = src[f, i]
		if (s !~ /^func /)
			continue
		sub(/^func /, "", s)
		recv = ""
		if (s ~ /^\(/) {
			recv = s
			sub(/\).*/, "", recv)
			n = split(recv, parts, " ")
			recv = parts[n]
			gsub(/[(*]/, "", recv)
			sub(/\[.*/, "", recv)
			sub(/^\([^)]*\) */, "", s)
		}
		sub(/[^A-Za-z0-9_].*/, "", s)
		return recv == "" ? s : recv "." s
	}
	return "?"
}
BEGIN {
	while ((getline line < allow) > 0) {
		if (line == "" || line ~ /^#/)
			continue
		split(line, a, "\t")
		entry[a[1] "\t" a[2] "\t" a[3]] = 1
	}
	close(allow)
}
NR > 1 {
	split($1, loc, ":")
	f = loc[1]
	sub(/^elsc\//, "", f)
	if (f !~ /^internal\/(sim|kernel|klist|task|sched|ipc|workload)\/[^\/]+\.go$/ && f !~ /^internal\/(sched|workload)\/[^\/]+\/[^\/]+\.go$/)
		next
	key = f ":" loc[2]
	count[key] += $NF
	stmts[key] = $2
}
END {
	sorter = "sort -t: -k1,1 -k2,2n"
	for (key in count) {
		if (count[key] > 0)
			continue
		split(key, loc, ":")
		f = loc[1]
		split(loc[2], pos, ".")
		l = pos[1] + 0
		if (!(f in loaded))
			load(f)
		fn = funcAt(f, l)
		text = trim(src[f, l])
		zero++
		nstmt += stmts[key]
		mark = ""
		if ((f "\t" fn "\t" text) in entry)
			used[f "\t" fn "\t" text] = 1
		else if ((f "\t" fn "\t*") in entry)
			used[f "\t" fn "\t*"] = 1
		else {
			mark = "  <- not in " allow
			bad++
		}
		print f ":" l ": " fn ": " text mark | sorter
	}
	close(sorter)
	for (e in entry)
		if (!(e in used))
			print "census.allow entry matches no zero-count block: " e > "/dev/stderr"
	printf "%d zero-count blocks (%d statements) in the audited packages, %d not in %s\n", zero, nstmt, bad, allow > "/dev/stderr"
	exit (bad > 0)
}' "$out/blocks.txt"
