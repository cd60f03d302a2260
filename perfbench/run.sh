#!/usr/bin/env bash
# Builds reactived, reactivespec and perfbench from the checkout
# in the current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload stream-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write lands under .bench_build/ in the
# checkout (Go build cache included). Run it from the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/reactived" || ! -d "$root/cmd/reactivespec" ]]; then
	echo "perfbench: $root is not a reactivespec checkout (run from the repository root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
# The go command keeps its configuration and telemetry counters under the
# user's config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/reactived ./cmd/reactivespec >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
