#!/usr/bin/env bash
# Determinism gate: the whole stack is a seeded discrete-event simulation,
# so two runs with the same seed must be byte-identical — stdout (plan,
# serving table, metrics snapshot) and the Chrome trace JSON alike. Any
# diff means hash-order, wall-clock, or ambient-RNG leakage; hero-lint
# catches those statically, this catches what slips through.
#
# Usage: tools/determinism_check.sh [build_dir] [seeds...]
#   default: build, seeds 1 2 3
set -euo pipefail

BUILD_DIR="${1:-build}"
shift $(( $# > 0 ? 1 : 0 ))
SEEDS=("$@")
if [ ${#SEEDS[@]} -eq 0 ]; then SEEDS=(1 2 3); fi

QUICKSTART="$(cd "$BUILD_DIR" && pwd)/examples/quickstart"
if [ ! -x "$QUICKSTART" ]; then
  echo "determinism_check: $QUICKSTART not built (run: cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FAULT_PLAN="$REPO_ROOT/examples/faults/switch_chaos.json"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

RATE=2.0
REQUESTS=40
FAIL=0

for seed in "${SEEDS[@]}"; do
  for run in 1 2; do
    # Each run gets its own cwd and writes `trace.json` under the same
    # relative path, so the trace-file name echoed to stdout is identical
    # and stdout can be byte-compared.
    mkdir -p "$WORK/run-$seed-$run"
    ( cd "$WORK/run-$seed-$run" &&
      "$QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" \
          --trace trace.json > stdout.txt )
  done
  if ! cmp -s "$WORK/run-$seed-1/stdout.txt" "$WORK/run-$seed-2/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed stdout differs between runs" >&2
    diff "$WORK/run-$seed-1/stdout.txt" "$WORK/run-$seed-2/stdout.txt" | head -20 >&2 || true
    FAIL=1
  fi
  if ! cmp -s "$WORK/run-$seed-1/trace.json" "$WORK/run-$seed-2/trace.json"; then
    echo "determinism_check: FAIL seed=$seed trace JSON differs between runs" >&2
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: seed=$seed OK (stdout + trace byte-identical)"
  fi

  # Chaos phase: the same gate under an active fault plan. Fault injection
  # is driven by simulator events, so chaos runs must reproduce just as
  # exactly as clean ones.
  for run in 1 2; do
    mkdir -p "$WORK/chaos-$seed-$run"
    ( cd "$WORK/chaos-$seed-$run" &&
      "$QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" \
          --trace trace.json --faults "$FAULT_PLAN" > stdout.txt )
  done
  if ! cmp -s "$WORK/chaos-$seed-1/stdout.txt" "$WORK/chaos-$seed-2/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed chaos stdout differs between runs" >&2
    diff "$WORK/chaos-$seed-1/stdout.txt" "$WORK/chaos-$seed-2/stdout.txt" | head -20 >&2 || true
    FAIL=1
  fi
  if ! cmp -s "$WORK/chaos-$seed-1/trace.json" "$WORK/chaos-$seed-2/trace.json"; then
    echo "determinism_check: FAIL seed=$seed chaos trace JSON differs between runs" >&2
    FAIL=1
  fi
  if ! grep -q "faults.injected" "$WORK/chaos-$seed-1/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed chaos run injected no faults" >&2
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: seed=$seed chaos OK (stdout + trace byte-identical)"
  fi

  # Fleet phase: multi-instance serving behind the HeroServe router. The
  # router's cost reads live queue depths and fair-share bandwidth, so this
  # gate catches any dispatch-order or tie-break nondeterminism the
  # single-instance path cannot exercise.
  for run in 1 2; do
    mkdir -p "$WORK/fleet-$seed-$run"
    ( cd "$WORK/fleet-$seed-$run" &&
      "$QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" \
          --instances 4 --router hero --trace trace.json > stdout.txt )
  done
  if ! cmp -s "$WORK/fleet-$seed-1/stdout.txt" "$WORK/fleet-$seed-2/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed fleet stdout differs between runs" >&2
    diff "$WORK/fleet-$seed-1/stdout.txt" "$WORK/fleet-$seed-2/stdout.txt" | head -20 >&2 || true
    FAIL=1
  fi
  if ! cmp -s "$WORK/fleet-$seed-1/trace.json" "$WORK/fleet-$seed-2/trace.json"; then
    echo "determinism_check: FAIL seed=$seed fleet trace JSON differs between runs" >&2
    FAIL=1
  fi
  if ! grep -q "^fleet goodput" "$WORK/fleet-$seed-1/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed fleet run printed no fleet summary" >&2
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: seed=$seed fleet OK (stdout + trace byte-identical)"
  fi

  # Engine-equivalence phase: the incremental max-min engine and the
  # whole-fabric solve must produce byte-identical output — stdout and the
  # trace JSON (event stream, metrics snapshot) alike, not merely close
  # numbers. Covers the single-instance run (served as a fleet of one).
  for mode in "" "--full-solve"; do
    dir="equiv-$seed${mode:+-full}"
    mkdir -p "$WORK/$dir"
    ( cd "$WORK/$dir" &&
      "$QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" $mode \
          --trace trace.json > stdout.txt )
  done
  if ! cmp -s "$WORK/equiv-$seed/stdout.txt" "$WORK/equiv-$seed-full/stdout.txt"; then
    echo "determinism_check: FAIL seed=$seed full-solve stdout diverges from incremental" >&2
    diff "$WORK/equiv-$seed/stdout.txt" "$WORK/equiv-$seed-full/stdout.txt" | head -20 >&2 || true
    FAIL=1
  fi
  if ! cmp -s "$WORK/equiv-$seed/trace.json" "$WORK/equiv-$seed-full/trace.json"; then
    echo "determinism_check: FAIL seed=$seed full-solve trace diverges from incremental" >&2
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: seed=$seed engine-equivalence OK (incremental == full-solve)"
  fi
done

# Simspeed phase (when the bench is built): BENCH_simspeed.json must
# reproduce across reruns once the wall-clock keys (wall_*) are stripped,
# and the full-solve engine must agree on every key that is not
# wall-derived (wall_*) or solver-mode-dependent (solver_*).
BENCH_SIMSPEED="$(cd "$BUILD_DIR" && pwd)/bench/bench_simspeed"
if [ -x "$BENCH_SIMSPEED" ]; then
  strip_wall() { sed -E 's/, "wall_[a-z_]+": [^,}]+//g' "$1"; }
  strip_wall_solver() { sed -E 's/, "(wall|solver)_[a-z_]+": [^,}]+//g' "$1"; }
  for run in 1 2; do
    mkdir -p "$WORK/simspeed-$run"
    ( cd "$WORK/simspeed-$run" &&
      "$BENCH_SIMSPEED" --quick > stdout.txt 2>&1 )
  done
  mkdir -p "$WORK/simspeed-full"
  ( cd "$WORK/simspeed-full" &&
    "$BENCH_SIMSPEED" --quick --full-solve > stdout.txt 2>&1 )
  if ! cmp -s <(strip_wall "$WORK/simspeed-1/BENCH_simspeed.json") \
              <(strip_wall "$WORK/simspeed-2/BENCH_simspeed.json"); then
    echo "determinism_check: FAIL simspeed JSON differs between reruns (wall_ stripped)" >&2
    FAIL=1
  fi
  if ! cmp -s <(strip_wall_solver "$WORK/simspeed-1/BENCH_simspeed.json") \
              <(strip_wall_solver "$WORK/simspeed-full/BENCH_simspeed.json"); then
    echo "determinism_check: FAIL simspeed full-solve JSON diverges (wall_/solver_ stripped)" >&2
    diff <(strip_wall_solver "$WORK/simspeed-1/BENCH_simspeed.json") \
         <(strip_wall_solver "$WORK/simspeed-full/BENCH_simspeed.json") | head -10 >&2 || true
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: simspeed OK (rerun + engine-equivalence)"
  fi
else
  echo "determinism_check: simspeed phase skipped ($BENCH_SIMSPEED not built)"
fi

# Autoscale phase (when the bench is built): the elastic-fleet controller
# runs on simulator timers and router counters only, so two bench runs —
# scale-ups, drains, GPU releases and all — must write byte-identical
# BENCH_autoscale.json files.
BENCH_AUTOSCALE="$(cd "$BUILD_DIR" && pwd)/bench/bench_autoscale"
if [ -x "$BENCH_AUTOSCALE" ]; then
  for run in 1 2; do
    mkdir -p "$WORK/autoscale-$run"
    ( cd "$WORK/autoscale-$run" &&
      "$BENCH_AUTOSCALE" --quick > stdout.txt 2>&1 )
  done
  if ! cmp -s "$WORK/autoscale-1/BENCH_autoscale.json" \
              "$WORK/autoscale-2/BENCH_autoscale.json"; then
    echo "determinism_check: FAIL autoscale JSON differs between reruns" >&2
    diff "$WORK/autoscale-1/BENCH_autoscale.json" \
         "$WORK/autoscale-2/BENCH_autoscale.json" | head -10 >&2 || true
    FAIL=1
  fi
  if ! grep -q "autoscale verdict: elastic PASSES" \
       "$WORK/autoscale-1/stdout.txt"; then
    echo "determinism_check: FAIL autoscale verdict not PASSES" >&2
    FAIL=1
  fi
  if [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: autoscale OK (rerun byte-identical, verdict PASSES)"
  fi
else
  echo "determinism_check: autoscale phase skipped ($BENCH_AUTOSCALE not built)"
fi

# Prefix-tier phase (when the bench is built): block publication, LRU
# eviction, directory lookups, and the stream-vs-recompute settlement all
# run on simulator state and seeded RNG only — so bench_prefix must write
# byte-identical BENCH_prefix.json files on rerun at every seed, and the
# default-seed run must hold the headline claim (affinity routing beats
# prefix-blind serving wherever >= 30% of prefill is shareable).
BENCH_PREFIX="$(cd "$BUILD_DIR" && pwd)/bench/bench_prefix"
if [ -x "$BENCH_PREFIX" ]; then
  for seed in "${SEEDS[@]}"; do
    for run in 1 2; do
      mkdir -p "$WORK/prefix-$seed-$run"
      ( cd "$WORK/prefix-$seed-$run" &&
        "$BENCH_PREFIX" --quick --seed "$seed" > stdout.txt 2>&1 )
    done
    if ! cmp -s "$WORK/prefix-$seed-1/BENCH_prefix.json" \
                "$WORK/prefix-$seed-2/BENCH_prefix.json"; then
      echo "determinism_check: FAIL seed=$seed prefix JSON differs between reruns" >&2
      diff "$WORK/prefix-$seed-1/BENCH_prefix.json" \
           "$WORK/prefix-$seed-2/BENCH_prefix.json" | head -10 >&2 || true
      FAIL=1
    else
      echo "determinism_check: seed=$seed prefix OK (rerun byte-identical)"
    fi
  done
  mkdir -p "$WORK/prefix-default"
  ( cd "$WORK/prefix-default" &&
    "$BENCH_PREFIX" --quick > stdout.txt 2>&1 )
  if ! grep -q "prefix verdict: affinity PASSES" \
       "$WORK/prefix-default/stdout.txt"; then
    echo "determinism_check: FAIL prefix verdict not PASSES" >&2
    FAIL=1
  elif [ "$FAIL" -eq 0 ]; then
    echo "determinism_check: prefix OK (verdict PASSES)"
  fi
else
  echo "determinism_check: prefix phase skipped ($BENCH_PREFIX not built)"
fi

# Strong-units phase (when the dimension-checked build exists): the
# HERO_STRONG_UNITS build swaps the Time/Bytes/... aliases for Quantity<>
# wrappers, which must perform the identical double operations in the
# identical order — so quickstart and fleet stdout + traces must be
# byte-identical ACROSS builds, not merely within one
# (DESIGN.md -> "Dimensional correctness").
STRONG_DIR="${STRONG_BUILD_DIR:-${BUILD_DIR%/}-strong}"
STRONG_QUICKSTART=""
if [ -d "$STRONG_DIR" ]; then
  STRONG_QUICKSTART="$(cd "$STRONG_DIR" && pwd)/examples/quickstart"
fi
if [ -n "$STRONG_QUICKSTART" ] && [ -x "$STRONG_QUICKSTART" ]; then
  for seed in "${SEEDS[@]}"; do
    mkdir -p "$WORK/strong-$seed" "$WORK/strong-fleet-$seed"
    ( cd "$WORK/strong-$seed" &&
      "$STRONG_QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" \
          --trace trace.json > stdout.txt )
    ( cd "$WORK/strong-fleet-$seed" &&
      "$STRONG_QUICKSTART" "$RATE" "$REQUESTS" --seed "$seed" \
          --instances 4 --router hero --trace trace.json > stdout.txt )
    for pair in "run-$seed-1 strong-$seed" "fleet-$seed-1 strong-fleet-$seed"; do
      set -- $pair
      if ! cmp -s "$WORK/$1/stdout.txt" "$WORK/$2/stdout.txt"; then
        echo "determinism_check: FAIL seed=$seed strong-units stdout diverges ($1 vs $2)" >&2
        diff "$WORK/$1/stdout.txt" "$WORK/$2/stdout.txt" | head -20 >&2 || true
        FAIL=1
      fi
      if ! cmp -s "$WORK/$1/trace.json" "$WORK/$2/trace.json"; then
        echo "determinism_check: FAIL seed=$seed strong-units trace diverges ($1 vs $2)" >&2
        FAIL=1
      fi
    done
    if [ "$FAIL" -eq 0 ]; then
      echo "determinism_check: seed=$seed strong-units OK (default == strong, quickstart + fleet)"
    fi
  done
else
  echo "determinism_check: strong-units phase skipped ($STRONG_DIR/examples/quickstart not built)"
fi

if [ "$FAIL" -ne 0 ]; then
  echo "determinism_check: FAILED" >&2
  exit 1
fi
echo "determinism_check: all ${#SEEDS[@]} seeds reproducible"
