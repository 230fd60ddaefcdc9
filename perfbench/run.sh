#!/usr/bin/env bash
# Builds the benchmark and fftserved from this checkout, then runs one
# workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build output and Go cache stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
go build -o "$out/fftserved" ./cmd/fftserved
exec "$out/perfbench" -fftserved "$out/fftserved" "$@"
