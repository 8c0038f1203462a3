#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build
# artifact under .bench_build in the directory it is started from:
#
#   bash perfbench/run.sh --workload trace-exact --seed 1 --seconds 30 --trace 0
#
# The last line of standard output is the result object; see README.md.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
# The revision stamped on results; a checkout that is not a git
# repository reports "unknown".
rev=unknown
if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || rev="$rev+dirty"
else
	rev=unknown
fi
PERFBENCH_REV="$rev" exec "$out/perfbench" "$@"
