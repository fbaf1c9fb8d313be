#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot_mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
