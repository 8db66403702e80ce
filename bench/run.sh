#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes (Go build cache,
# binary) stays under bench/.build; everything a run writes under
# bench/out. Run it from the root of the checkout, as BENCHMARK.json's
# command does:
#
#   bash bench/run.sh --workload serve-write --seed 1 --seconds 12 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

# Keep the toolchain from reading or writing outside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local

# bench is a module of its own that replaces "repro" with the parent
# directory; without the repository's sources around it this fails and
# the script exits non-zero before printing any result.
# The commit is echoed in every run's output; the driver's checkout is
# not a repository, so it is looked up here and not left to go build.
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .)

cd "$here/.."
exec "$build/bench" "$@"
