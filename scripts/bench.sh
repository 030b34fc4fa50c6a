#!/usr/bin/env bash
# Perf harness: build Release, run the event-core + end-to-end throughput
# benchmarks, and write BENCH_throughput.json at the repo root.
#
#   scripts/bench.sh            # full run (~1 min)
#   scripts/bench.sh --quick    # CI-sized smoke run (~5 s)
#   scripts/bench.sh --check    # additionally gate fresh numbers against the
#                               # committed BENCH_throughput.json (a ratio
#                               # regression past the row's tolerance — 20%
#                               # default, 15% on the 40-byte event-core row —
#                               # a row whose metric or reference is missing,
#                               # a blown fig10_scale memory budget, or a
#                               # failed fig10_parallel check, fails)
#   BUILD_DIR=out scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK_ARGS=()
CHECK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK_ARGS+=(--quick) ;;
    --check) CHECK=1 ;;
    *) echo "usage: scripts/bench.sh [--quick] [--check]" >&2; exit 2 ;;
  esac
done

BUILD_DIR="${BUILD_DIR:-build}"

BASELINE=""
if [[ "$CHECK" == 1 ]]; then
  if [[ ! -f BENCH_throughput.json ]]; then
    echo "bench.sh: --check requested but no committed BENCH_throughput.json" >&2
    exit 1
  fi
  BASELINE="$(mktemp)"
  cp BENCH_throughput.json "$BASELINE"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_throughput
"$BUILD_DIR"/bench_throughput "${QUICK_ARGS[@]}" --out BENCH_throughput.json
echo "BENCH_throughput.json written."

if [[ "$CHECK" == 1 ]]; then
  echo "comparing against committed baseline:"
  python3 scripts/bench_gate.py "$BASELINE" BENCH_throughput.json --tolerance 0.20
  rm -f "$BASELINE"
fi
