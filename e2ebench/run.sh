#!/bin/sh
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   sh e2ebench/run.sh --workload cloud-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
