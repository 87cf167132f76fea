#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#	bash benchmark/run.sh --workload fleet-vclock --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, span dumps) stays
# under .bench_build in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark: run from the repository root (go.mod and benchmark/ not found in $(pwd))" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$build/sensei-bench" .)
exec "$build/sensei-bench" "$@"
