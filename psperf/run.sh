#!/usr/bin/env bash
# Builds the PeerStripe benchmark from this checkout's sources and runs it.
#
#   bash psperf/run.sh --workload bulk|ranged|degraded --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary and the Go build cache go
# to $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout. The last line of standard output is the result
# object; the line before it is the full report (see psperf/README.md).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the build directory too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C psperf build -o "$out/psperf" .
exec "$out/psperf" "$@"
