#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fabric-sweep --seed 3 --seconds 25 --trace 0
#
# Run from the repository root. The Go build cache, the binary and any
# trace files stay under .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a pciebench checkout" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" == /* ]] || build="$PWD/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
