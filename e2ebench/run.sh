#!/usr/bin/env bash
# Builds stapd, stapnode and the benchmark harness from this checkout and
# runs the harness with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload track-medium --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/stapd" || ! -d "$root/cmd/stapnode" ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/stapd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOMAXPROCS=2

go build -o "$out/bin/stapd" ./cmd/stapd
go build -o "$out/bin/stapnode" ./cmd/stapnode
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -out "$out" "$@"
