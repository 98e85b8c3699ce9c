#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload range-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the disk-range checkpoint and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
bench=$root/perfbench
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off

# The commit, when the checkout is a git work tree; otherwise a digest of the
# Go sources, so every run still names the code it measured.
rev=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	rev=src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

go -C "$bench" build -o "$out/perfbench" -ldflags "-X main.commit=$rev" .
exec "$out/perfbench" --workdir "$out" "$@"
