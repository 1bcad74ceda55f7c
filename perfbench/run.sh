#!/usr/bin/env bash
# Builds the benchmark harness and the cmd/shadowdb node binary from the
# checkout this script sits in, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload smr-bank --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and per-run scratch data all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root" && go build -o "$out/bin/shadowdb" ./cmd/shadowdb) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -node-bin "$out/bin/shadowdb" -tmp "$out/tmp" "$@"
