#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/perfbench-runs" "$@"
