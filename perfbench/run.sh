#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, keeping
# every build and run output under the build directory (.bench_build,
# or $CARGO_TARGET_DIR when set). Run from the repository root:
#
#   bash perfbench/run.sh --workload fork-flat --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

# The Go toolchain's caches, temporary files and settings live in the
# build directory too; the module has no dependencies to download.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
