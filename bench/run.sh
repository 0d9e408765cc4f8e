#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source and runs it
# with the arguments given. Run it from the root of a checkout. Everything it
# writes — the binary, the Go build cache, persistence directories — goes
# under .bench_build/ in that checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		GOTOOLCHAIN=local go build -o "$build/tcbench" .
)
exec "$build/tcbench" -tmp "$build/tmp" "$@"
