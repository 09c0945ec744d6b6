#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes — Go's build cache, its
# temporary files, the binary — stays under .bench_build in the checkout.
# With a warm cache the build adds about half a second to a run.
set -euo pipefail
cd "$(dirname "$0")/.."
# The benchmark is a package of the repository's module and drives its
# library: without the sources beside it there is nothing to measure.
if [ ! -f go.mod ] || [ ! -f pario.go ]; then
	echo "bench/run.sh: the repository's sources are not in $PWD" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
