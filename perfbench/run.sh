#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, module cache, toolchain config) stays under .bench_build, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  "$root"/*) ;;
  *) build="$root/.bench_build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export PATH="$PATH:/usr/local/go/bin"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

# Build to a private name, then rename: a half-written binary is never run.
tmp="$build/perfbench.$$"
(cd "$root/perfbench" && go build -o "$tmp" .) >&2
mv -f "$tmp" "$build/perfbench"

exec "$build/perfbench" -workdir "$build/work" "$@"
