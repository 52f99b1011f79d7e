#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it.
# Every path the go tool writes (build cache, temp files, module cache) is
# pointed inside the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.gitRev=$rev" -o "$build/supmr-bench" .)
exec "$build/supmr-bench" "$@"
