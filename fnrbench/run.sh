#!/usr/bin/env bash
# Builds the benchmark and the fnrd daemon from this checkout's sources
# into .bench_build, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash fnrbench/run.sh --workload paper-batch --seed 1 --seconds 20 --trace 0
#
# The first run in a checkout compiles everything (a minute or two);
# later runs reuse the build cache under .bench_build.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# Keep every Go cache, config and temporary file inside the checkout,
# use the installed toolchain, and never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= GOWORK=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(
	cd fnrbench
	go build -o "$out/fnrbench" .
	go build -o "$out/fnrd" fnr/cmd/fnrd
) >&2

exec "$out/fnrbench" --fnrd "$out/fnrd" --trace-dir "$out/traces" "$@"
