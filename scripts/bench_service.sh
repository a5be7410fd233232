#!/usr/bin/env bash
# Service-level load benchmark: boot one durable nocmapd, drive it with
# cmd/nocmapload's seeded deterministic request stream at a sustained
# rate, and record jobs/sec + P50/P85/P99 latency into BENCH.json's
# "service" section under the name "solve-group" (the server outbox's
# group commit: many records per fsync). The result cache is disabled
# so every request exercises the store write path, and the store runs
# behind a 1ms injected fsync latency so the disk cost is a realistic
# SSD's rather than the CI host's page cache. `make bench-service`
# runs this; `make bench-service-gate` adds the XmR control-chart
# check on top.
#
#   scripts/bench_service.sh [RPS] [DURATION] [OUT]
set -euo pipefail
cd "$(dirname "$0")/.."

rps=${1:-900}
duration=${2:-5s}
out=${3:-BENCH.json}

workdir=$(mktemp -d)
bin="$workdir/nocmapd"
loadbin="$workdir/nocmapload"
cleanup() {
    [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# wait_addr LOGFILE PID -> echoes the base URL once the process logs it.
wait_addr() {
    local logfile=$1 pid=$2 base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$logfile" | head -1)
        [[ -n "$base" ]] && { echo "$base"; return 0; }
        kill -0 "$pid" 2>/dev/null || { echo "FAIL: process died:" >&2; cat "$logfile" >&2; return 1; }
        sleep 0.1
    done
    echo "FAIL: process never reported its address:" >&2; cat "$logfile" >&2; return 1
}

echo "== build"
go build -o "$bin" ./cmd/nocmapd
go build -o "$loadbin" ./cmd/nocmapload

echo "== bench-service: rps=$rps duration=$duration"
log="$workdir/nocmapd.log"
"$bin" -addr 127.0.0.1:0 -store "$workdir/store" \
    -store-fault latency=1ms -cache -1 >"$log" 2>&1 &
server_pid=$!
base=$(wait_addr "$log" "$server_pid")
"$loadbin" -url "$base" -rps "$rps" -duration "$duration" \
    -name solve-group -out "$out"
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "== bench-service: recorded into $out"
