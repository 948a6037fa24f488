#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout it sits in and runs it
# with the given arguments (see simbench/README.md):
#
#   bash simbench/run.sh --workload ladder-cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the build's temporary files and the Go
# command's own state (telemetry counters under the config directory) all
# live under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# so nothing outside the checkout is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/home"

# Fall back to Go's default install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/simbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -o "$out/simbench" .)
cd "$root"
exec "$out/simbench" "$@"
