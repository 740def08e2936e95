#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload cc-inproc --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 35 --trace 0
#
# "--workload all", given first, runs every workload in turn, each in a
# process of its own. Build output, the Go build cache and span files
# stay in .bench_build at the root of the checkout. The build needs the
# optiflow module one directory up; without it the script fails before
# printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the go command's cache, temp files and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	for w in cc-inproc pagerank-inproc cc-proc; do
		"$out/perfbench" --spans "$out/spans" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/perfbench" --spans "$out/spans" "$@"
