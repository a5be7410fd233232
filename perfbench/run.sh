#!/usr/bin/env bash
# Builds the benchmark, nocmapd and nocmapsh from the tree it sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the services' store directories stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/nocmapd ] || [ ! -d cmd/nocmapsh ]; then
	echo "perfbench: run from the repository root; go.mod, cmd/nocmapd and cmd/nocmapsh are missing" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/work" "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
# Telemetry "off": otherwise each go command forks a detached upload
# process that outlives the benchmark.
mkdir -p "$out/home/.config/go/telemetry"
echo off >"$out/home/.config/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go build -o "$out/bin/nocmapd" ./cmd/nocmapd >&2
go build -o "$out/bin/nocmapsh" ./cmd/nocmapsh >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
