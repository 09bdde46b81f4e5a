#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload match-small --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/servebench" && go build -o "$out/servebench.bin" .) >&2
exec "$out/servebench.bin" --out "$out/servebench" "$@"
