#!/usr/bin/env bash
# Builds the benchmark and hosserve from this checkout and runs the
# benchmark. Run it from the repository root:
#
#   bash bench/run.sh [flags]        # flags: see bench/README.md
#
# The benchmark reads and writes only inside the checkout, so the Go
# build cache, module cache and config live under .bench_build/ here
# rather than in the user's home; binaries and scratch data go there
# too, results to bench/out/. `cd bench && go run .` works as well,
# with the user's own caches.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
