#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ctl-heavy --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, dataset and trace
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out"
# The go command keeps its telemetry counters under the user's config
# directory; keep them in the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
