#!/usr/bin/env bash
# Builds the campaign benchmark and the hetexp and hetsimd binaries it
# measures from the tree under test, then runs it with the given flags.
# Run from the repository root; every build output, the Go build cache and
# every temporary file stay under .bench_build/.
#
#   bash bench/run.sh --workload campaign-cold --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home" "$out/config"
# The go command also writes under HOME and the user config directory
# (telemetry counters); keep those in the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
go build -o "$out/bin/" ./cmd/hetexp ./cmd/hetsimd
exec "$out/bin/bench" "$@"
