#!/usr/bin/env bash
# Builds the hetpartd daemon and the perfbench load generator from this
# checkout, then runs one traffic mix against the real daemon:
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and the
# daemons' stores all live under .bench_build/, so nothing is written
# outside the checkout. The last line of standard output is the JSON
# result; build and daemon diagnostics go to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" .
go build -o "$out/hetpartd" ./cmd/hetpartd
exec "$out/perfbench" -daemon "$out/hetpartd" -work "$out" "$@"
