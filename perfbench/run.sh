#!/usr/bin/env bash
# Builds kfserver, streamkf and the benchmark from the checkout it is run
# in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the benchmark's scratch files stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -o "$out/bin/" ./cmd/kfserver ./cmd/streamkf >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/perfbench" "$@"
