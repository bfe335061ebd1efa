#!/usr/bin/env bash
# Builds the imliperf benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload suite-imli --seed 0 --seconds 20 --trace 0
#
# The Go build cache, the binary, the passes' scratch stores and the
# spans file all live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root: go.mod, internal/ or bench/go.mod is missing" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd bench && go build -o "$out/imliperf" ./imliperf)
exec "$out/imliperf" -workdir "$out" "$@"
