#!/usr/bin/env bash
# Builds timeprintd and the load generator from this checkout's source,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: binaries, the Go build cache, run state and span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"

# Offline, local-toolchain build whose caches live in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

cd "$here"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/timeprintd" repro/cmd/timeprintd >&2
cd "$root"
exec "$out/bin/perfbench" -daemon "$out/bin/timeprintd" -out "$out" "$@"
