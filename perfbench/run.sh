#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload paper-1x1 --seed 1 --seconds 30 --trace 0
# Run from the repository root. The Go build cache, temporary files and the
# binary stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
work=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$work"
work=$(cd "$work" && pwd)
mkdir -p "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# The commit in the host stamp comes from Go's VCS stamping; where git
# cannot be asked (no checkout, unsafe ownership) build without it.
(cd perfbench && { go build -o "$work/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$work/perfbench" .; })
exec "$work/perfbench" "$@"
