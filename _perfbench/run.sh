#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Every build artifact stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$build"
(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -spans "$build/spans" "$@"
