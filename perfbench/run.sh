#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every build product and cache stays under .bench_build.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Without the repository's own
# sources next to perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
# Go's temporary build files and any temporary file the program makes.
export TMPDIR="${build}/tmp"

go -C "${root}/perfbench" build -o "${build}/perfbench" . >&2
exec "${build}/perfbench" "$@"
