#!/usr/bin/env bash
# Builds the benchmark and the namer binaries it drives from this checkout,
# then runs one workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload goroot --seed 1 --seconds 40 --trace 0
#
# Every build output and the Go build cache live under .bench_build/ in the
# checkout, so a run writes nothing outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/namer-serve" ]; then
	echo "perfbench: run from the root of a namer checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/namer-serve ./cmd/namer-mine ./cmd/namer-train >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
