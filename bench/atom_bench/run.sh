#!/usr/bin/env bash
# Builds the benchmark from source (first run only, then incrementally)
# and runs it; every argument goes to atom_bench. Build output goes to
# stderr so stdout carries only the benchmark's own lines.
#
#   bash bench/atom_bench/run.sh --workload microblog_trap --seed 1 \
#       --seconds 12 --trace 0
#   bash bench/atom_bench/run.sh --smoke
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../.bench_build/atom_bench"

if [[ ! -f "$build/CMakeFiles/cmake.check_cache" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target atom_bench >&2
exec "$build/atom_bench" "$@"
