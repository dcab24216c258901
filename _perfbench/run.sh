#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash _perfbench/run.sh --workload write-saturate --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and trace file stays under .bench_build/
# at the root of the checkout. Without the surrounding repository the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
