#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload ctp-search --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache, module cache, temporary build files, Go's own config and
# telemetry) stays under $CARGO_TARGET_DIR, default .bench_build, so
# nothing is written outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
