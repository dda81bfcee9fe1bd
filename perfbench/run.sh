#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig7-dynamic --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, page files, spill runs, and span files all
# stay under .bench_build/ in the current directory. The build fails (and
# nothing is run) unless the engine's sources are in the parent directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
