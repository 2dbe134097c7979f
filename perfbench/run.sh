#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through to perfbench (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload schemes --seed 1 --seconds 10 --trace 0
#
# The build, Go's caches, its temporary files and its config all stay
# under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
