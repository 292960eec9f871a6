#!/usr/bin/env bash
# Builds cmd/rtserved and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments. Run it from the
# root of the checkout:
#
#   bash e2ebench/run.sh --workload hot_repeat --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -o "$out/rtserved" ./cmd/rtserved
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -rtserved "$out/rtserved" -work "$out" "$@"
