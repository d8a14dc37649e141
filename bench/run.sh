#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh [flags]        (flags: see bench/README.md)
#
# The Go build cache and the binary live in .bench_build at the
# repository root, so a run reads and writes only inside the checkout.
# Without the repository's sources next to this directory the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$bench" && go build -o "$out/morphbench" .)

cd "$root"
exec "$out/morphbench" "$@"
