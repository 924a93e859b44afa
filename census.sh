#!/usr/bin/env bash
# census.sh: which non-test functions does no program in this repo reach?
#
# Builds cmd/sweep, cmd/schedtrace, cmd/volano and the four examples/
# programs instrumented over every package, runs the quick catalog, a fuzz
# batch with hotplug storms, schedtrace (o1 through a hotplug cycle, elsc
# with its table dump), one volano and each example under one GOCOVERDIR,
# and prints every function left at 0% (file:line and name, sorted) on
# stdout and each package's statement coverage on stderr. Offline; about
# 5.5 minutes on two cores, so it is run on demand before a deletion PR,
# not in CI. A function listed here may still be reached by a test, by
# cmd/kcompile or cmd/websim (those are not run), or be a panic-only guard:
# the list is where to look, not what to delete.
#
#   bash census.sh            # work in a fresh temp dir
#   bash census.sh /some/dir  # keep binaries and coverage data there
set -euo pipefail
cd "$(dirname "$0")"
out=${1:-$(mktemp -d)}
mkdir -p "$out/bin" "$out/cov"
for cmd in sweep schedtrace volano; do
	go build -cover -coverpkg=./... -o "$out/bin/$cmd" "./cmd/$cmd"
done
examples=(chatserver priorities quickstart webserver)
for ex in "${examples[@]}"; do
	go build -cover -coverpkg=./... -o "$out/bin/example-$ex" "./examples/$ex"
done
export GOCOVERDIR=$out/cov
"$out/bin/sweep" -quick -exp all >/dev/null
"$out/bin/sweep" -exp fuzz -fuzzn 60 -fuzzhotplug >/dev/null
"$out/bin/schedtrace" -sched o1 -cpus 8 -domains 2 -tasks 12 -hotplug 3 -n 0 -watchdog >/dev/null
"$out/bin/schedtrace" -sched elsc -cpus 2 -table >/dev/null
"$out/bin/volano" -sched cfs -cpus 4 -smp -rooms 2 -messages 5 -stats -ps >/dev/null
for ex in "${examples[@]}"; do
	"$out/bin/example-$ex" >/dev/null
done
go tool covdata func -i="$out/cov" | awk '$NF == "0.0%" { print $1, $2 }' | sort
go tool covdata percent -i="$out/cov" >&2
echo "coverage data kept in $out" >&2
