#!/usr/bin/env bash
# Builds the sightd benchmark from source and runs it with the given
# flags (see doc.go). Run it from the repository root:
#
#   bash sightbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary build files and the binary live under
# .bench_build in the working directory, so the run reads and writes
# nothing outside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/sightbench/go.mod" ]; then
	echo "sightbench: run from the repository root (go.mod and sightbench/go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/sightbench" && go build -o "$build/sightbench" .)
exec "$build/sightbench" "$@"
