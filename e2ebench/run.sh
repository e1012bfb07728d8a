#!/usr/bin/env bash
# Builds the end-to-end pipeline benchmark from the checkout's sources and
# runs it. Everything the build writes (Go build cache, temp files, the
# binary) stays under .bench_build at the checkout root.
#
#   bash e2ebench/run.sh --workload reports-zipf --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "e2ebench: no go.mod at $root; run from a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" "$@"
