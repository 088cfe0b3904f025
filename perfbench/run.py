#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload fleet16|chaos|chat --seed N \
        --seconds S --trace 0|1 [--requests N]

Run from the repository root. The harness is compiled (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the harness's JSON result. The exit code is the
harness's own (0 ok, 1 failure, 2 usage error), or 1 when the build fails or
the harness overruns its time limit.
"""
import os
import subprocess
import sys
from pathlib import Path

HARNESS_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out: Path) -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: HeroServe sources not found under {ROOT}/src",
              file=sys.stderr)
        return False
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    out = build_dir()
    if not build(out):
        return 1
    try:
        return subprocess.run([str(out / "perfbench"), *sys.argv[1:]],
                              timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
