#!/usr/bin/env bash
# Builds coconut_benchmark in Release (first run only; later runs are an
# up-to-date check) and runs it with the given arguments, e.g.
#
#   bash bench/benchmark/run.sh --workload query_static --seed 1 \
#       --seconds 15 --trace 0 [--out FILE] [--trace-file FILE]
#
# Build output goes to stderr, so the last line of stdout is the benchmark's
# JSON result. Everything the build and the run write stays inside the
# checkout: .bench_build/ (build tree), .bench_work/ (the run's store and
# index files, removed at exit) and .bench_out/ (trace files).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/coconut_benchmark"

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j "$(nproc)" --target coconut_benchmark
} 1>&2

# A checkout without git history (or inside another repository) records
# "unknown"; "-dirty" marks uncommitted changes to tracked files.
commit=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  commit="$(git -C "$root" describe --always --dirty)"
fi

exec "$build/coconut_benchmark" --commit "$commit" \
  --work-dir "$root/.bench_work" "$@"
