#!/usr/bin/env bash
# Builds the modeld benchmark from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash modeldbench/run.sh --workload predict_warm --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build/modeldbench"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd "$here" && go build -o "$build/modeldbench" .)
exec "$build/modeldbench" "$@"
