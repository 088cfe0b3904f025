#!/usr/bin/env bash
# Run the tier-1 test suite under AddressSanitizer + UBSanitizer, built
# with every warning an error:
#
#   tools/check.sh [extra ctest args...]
#
# Uses the `asan-ubsan` CMake preset (build-asan/, benches off). Any
# compiler warning or sanitizer report fails the run
# (-fno-sanitize-recover=all). hero-lint runs separately:
# `cmake --build build --target lint`.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan -DHERO_WARNINGS_AS_ERRORS=ON
cmake --build --preset asan-ubsan -j "$(nproc)"

echo "== ctest (asan-ubsan) =="
ctest --preset asan-ubsan -j "$(nproc)" "$@"
