#!/usr/bin/env bash
# Builds cmd/bench from the source tree it sits in and runs it with the
# given arguments, from the root of that tree:
#
#   bash cmd/bench/run.sh --workload samate-batch --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build at the root, so a run reads and writes nothing outside the
# tree. The build fails, and nothing is printed on standard output, when
# the tree around cmd/bench is missing.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go -C "$root/cmd/bench" build -o "$build/bench" . >&2
exec "$build/bench" "$@"
