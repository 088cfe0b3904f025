#!/usr/bin/env bash
# Run the repo's correctness gates:
#   1. hero-lint over src/, tools/, bench/, examples/ (per-file rules
#      plus the include-graph layer/cycle/stale-suppression rules)
#   2. the tier-1 test suite under AddressSanitizer + UBSanitizer
#
#   tools/check.sh [extra ctest args...]
#
# Uses the `asan-ubsan` CMake preset (build-asan/, benches off). Any
# lint finding or sanitizer report fails the run
# (-fno-sanitize-recover=all).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

echo "== hero-lint =="
./build-asan/tools/lint/hero_lint src tools bench examples

echo "== ctest (asan-ubsan) =="
ctest --preset asan-ubsan -j "$(nproc)" "$@"
