#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (compiled packages, the binary,
# temporaries such as the traced run's CPU profiles) goes under the build
# directory inside the repository, named by CARGO_TARGET_DIR when set and
# .bench_build otherwise.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
export GOWORK=off CGO_ENABLED=0

go build -C "$bench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
