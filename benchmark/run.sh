#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the arguments given. Everything the Go toolchain writes
# (build cache, temporary files, its own state) is kept inside the
# checkout. Run from the root of the checkout: bash benchmark/run.sh
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/aa-benchmark" .)
cd "$root"
exec "$build/aa-benchmark" "$@"
