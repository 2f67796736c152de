#!/usr/bin/env bash
# Builds wallbench from this checkout's sources and runs it from the
# repository root, keeping every build product under .bench_build:
#
#   bash wallbench/run.sh --workload serve-miss --seed 1 --seconds 15 --trace 0
#
# The build never fetches anything: the module's only dependency is the
# enclosing repository (see go.mod).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
(cd "$root/wallbench" && go build -o "$build/wallbench" .)
exec "$build/wallbench" -root "$root" -out "$build/wallbench-spans" "$@"
