#!/usr/bin/env bash
# Builds the benchmark from source into bench/.build/ and runs it with the
# given arguments. The Go build cache and the go command's own config
# directory are kept there too, so that nothing is read or written outside
# the checkout; the first run in a checkout compiles, later runs find
# everything cached.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/.build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# The go command otherwise forks a telemetry child that outlives it; the
# mode file is the only switch it reads.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/stsl-bench" ./bench
exec "$build/stsl-bench" "$@"
