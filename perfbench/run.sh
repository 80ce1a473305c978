#!/usr/bin/env bash
# Builds the cost-ledger benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload zoo-detailed --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the working directory.
set -euo pipefail

out="$(pwd)/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
