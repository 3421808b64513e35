#!/usr/bin/env bash
# Builds the benchmark driver and the pmemserved daemon it drives from this
# checkout's source, then runs the driver from the checkout root. Everything
# it writes stays inside the checkout: .bench_build/ (binaries, Go caches)
# and benchmark/out/ (results, traces, temporary data dirs).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/pmemserved ] || [ ! -d internal ]; then
	echo "benchmark: $root is not a pmemgraph checkout (go.mod, cmd/pmemserved or internal/ missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/pmemserved" ./cmd/pmemserved
(cd benchmark && go build -o "$build/pmembenchmark" .)
exec "$build/pmembenchmark" "$@"
