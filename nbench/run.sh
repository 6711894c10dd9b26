#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; every argument is passed to the benchmark:
#
#   bash nbench/run.sh --workload relay-sat --seed 1 --seconds 20 --trace 0
#   bash nbench/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, the binary and traced runs' span files go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
(
	cd "$root/nbench"
	GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config \
		GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -buildvcs=false -o "$build/nbench" .
)
exec "$build/nbench" "$@"
