#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Usage: bash skybench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artefact (binary, Go build cache, temp files, go command
# settings) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/bin" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="${build}/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "${root}/skybench" && go build -o "${build}/bin/skybench" .) >&2
cd "${root}"
exec "${build}/bin/skybench" "$@"
