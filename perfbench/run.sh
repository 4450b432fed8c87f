#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload offload --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache, temp
# files, the binary) stays under .bench_build/ in that root, and the build
# never touches the network. Without the repository's sources next to this
# directory the build fails and the script exits non-zero without a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/lcrs-perfbench" .) >&2
exec "$out/lcrs-perfbench" "$@"
