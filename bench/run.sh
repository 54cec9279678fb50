#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the harness (its own module, here)
# and runs it from the repository root; the harness builds the commands under
# test. Everything the Go toolchain writes — build cache, module cache,
# telemetry, temporary files — is kept under .bench_build in the checkout, so
# the first run in a fresh checkout compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -C bench -o "$build/bin/adbench" .
exec "$build/bin/adbench" -root . "$@"
