#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the root of a checkout:
#
#   bash ctlbench/run.sh --workload xborder --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, and the durable sites' WALs.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd ctlbench
	env GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		go build -o "$out/ctlbench" .
)
exec "$out/ctlbench" "$@"
