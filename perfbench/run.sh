#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write (Go
# build cache, binary, journals, span logs) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

# A hermetic toolchain: no user go.env, no network, no toolchain switch, and
# no GAVEL_* knobs from the caller's environment changing what is measured.
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
for v in $(compgen -e | grep '^GAVEL_' || true); do
	unset "$v"
done

# The commit is stamped only when the checkout is itself a git work tree.
commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi
go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$build/perfbench" .
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
