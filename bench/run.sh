#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Called from the
# repository root (BENCHMARK.json's command). Everything it writes — Go
# build cache, toolchain config, binary, trace files — lands in
# .bench_build/ there, so a run touches nothing outside its checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
# The commit goes in by hand: the driver's checkout is not a git repository,
# and VCS stamping fails the build outright where git distrusts the tree.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -C bench -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/bench" .
exec "$out/bench" "$@"
