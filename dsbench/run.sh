#!/usr/bin/env bash
# Builds the dsbench program from the checkout's sources and runs it with
# the given flags, e.g.
#   bash dsbench/run.sh --workload mcf-paper --seed 20030717 --seconds 15 --trace 0
# Every build artefact and cache stays under .bench_build/ in the current
# directory, and the toolchain never reaches for the network.
set -euo pipefail
if ! grep -qs '^module dsprof$' go.mod; then
  echo "dsbench: run from the root of a dsprof checkout (no dsprof go.mod here)" >&2
  exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
mkdir -p "$GOTMPDIR"
(cd "$(dirname "$0")" && go build -o "$build/dsbench" .)
exec "$build/dsbench" "$@"
