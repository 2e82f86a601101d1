#!/usr/bin/env bash
# Builds the harness once per checkout and runs it. Everything the Go tool
# writes (build cache, binary) stays inside the checkout, under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pcbench" .)
cd "$root"
exec "$build/pcbench" "$@"
