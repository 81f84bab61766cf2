#!/usr/bin/env bash
# Builds the host-time benchmark from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash hostbench/run.sh --workload fault-sweep --seed 20150615 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) stays
# in .bench_build at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/hostbench" .)
cd "$root"
exec "$out/hostbench" "$@"
