#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#
#   bash e2ebench/run.sh --workload agg-4m --seed 1 --seconds 36 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# traced runs' span files all go under .bench_build (or $CARGO_TARGET_DIR),
# so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --spans "$out/e2ebench-spans" "$@"
