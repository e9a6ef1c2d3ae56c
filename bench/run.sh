#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the build writes (binary, Go build
# cache, the go command's telemetry counters, which live in its config
# directory) stays under .bench_build/ in the checkout; nothing is
# fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	cd "$root/bench" && go build -buildvcs=false -o "$out/mxqbench" .
)
cd "$root"
exec "$out/mxqbench" "$@"
