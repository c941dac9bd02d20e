#!/usr/bin/env bash
# Builds lampsd and the benchmark from the checkout this script sits in, then
# runs one benchmark run, passing every argument through:
#
#   bash lampsbench/run.sh --workload solve-plain --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# run's scratch files all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off CGO_ENABLED=0
# With telemetry in its default "local" mode the go command forks a detached
# sidecar that outlives this script; turning it off keeps every process that
# a run starts inside the run.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -o "$out/lampsd" ./cmd/lampsd
(cd "$root/lampsbench" && go build -o "$out/lampsbench" .)
exec "$out/lampsbench" -lampsd "$out/lampsd" -work "$out/tmp" "$@"
