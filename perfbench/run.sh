#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Every build artefact, cache and
# scratch file stays under the build directory inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" --commit "$commit" "$@"
