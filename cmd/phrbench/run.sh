#!/usr/bin/env bash
# Builds phrbench from this checkout's sources and runs it with the given
# arguments. Run it from the checkout's root:
#
#   bash cmd/phrbench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
#
# Everything the benchmark writes stays in .bench_build inside the
# checkout: the binary, the Go build cache and config from this script, and
# the disk stores and trace files from the binary itself. The build needs
# no network: the module has no dependencies outside the checkout.
set -euo pipefail

build=$(pwd)/.bench_build
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off XDG_CONFIG_HOME=$build/config

(cd cmd/phrbench && go build -o "$build/phrbench" .)
exec "$build/phrbench" "$@"
