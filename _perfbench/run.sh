#!/usr/bin/env bash
# Builds the benchmark, and the kagura module it measures, from source and
# runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload sim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout: the Go build
# cache, temp files, and the services' store and journal directories. The Go
# toolchain is used offline: no module downloads, no toolchain switch.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
