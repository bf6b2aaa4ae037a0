#!/usr/bin/env bash
# Builds and runs the serving benchmark from the repository root:
#
#   bash servebench/run.sh --workload classify-cold --seed 7 --seconds 20 --trace 0
#
# Everything it builds, trains and writes stays under .bench_build/ in
# the checkout: the Go build cache, the benchmark binary, the trained
# model artifacts (keyed by a fingerprint of the sources) and the
# per-run store directories, which each run removes when it ends.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
cd "$root"
exec "$out/servebench" "$@"
