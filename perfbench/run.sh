#!/usr/bin/env bash
# Builds the benchmark driver from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build cache, the go command's
# config and telemetry directory, and the binary all go to .bench_build/
# in that directory, so nothing is written outside it.
set -euo pipefail
if [[ ! -f go.mod || ! -d portals || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, portals/ and perfbench/go.mod are required)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
