#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# bench/out and runs it with the driver's arguments. Everything the Go tool
# writes (build cache, module path, its config and telemetry files) is kept
# under bench/out, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" XDG_CONFIG_HOME="$PWD/out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o out/bench .
exec out/bench "$@"
