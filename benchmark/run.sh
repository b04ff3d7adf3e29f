#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (build cache
# included, so nothing is written outside the checkout) and runs it with the
# given flags. BENCHMARK.json's command is `bash benchmark/run.sh`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/fjbench" .)
exec "$build/fjbench" -out "$here/out" "$@"
