#!/usr/bin/env bash
# The one merge gate: tier-1 build + full test suite, then every
# specialised checker — the state-hash determinism audit, the
# crash-forensics gate, ASan/UBSan, TSan over the concurrency-heavy tests,
# the telemetry gate, the pinned paper-results gate, and the
# performance-regression gate.
# CI invokes exactly this script; run it locally before pushing anything
# that touches simulator, harness or serialization code.
#
# Every step runs under a wall-clock timeout so a hung checker fails the
# gate instead of wedging it (exit 124 = the step timed out).
#
#   tools/check_all.sh [--skip-perf]
#
# Environment:
#   GPUSIM_JOBS           parallel build/test jobs (default: nproc)
#   GPUSIM_STEP_TIMEOUT   per-step timeout in seconds (default: 1200)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${GPUSIM_JOBS:-$(nproc)}"
STEP_TIMEOUT="${GPUSIM_STEP_TIMEOUT:-1200}"
SKIP_PERF=0
if [[ "${1:-}" == "--skip-perf" ]]; then
  SKIP_PERF=1
fi

step() {
  local title="$1"
  shift
  echo "===== $title ====="
  local rc=0
  timeout --foreground "$STEP_TIMEOUT" "$@" || rc=$?
  if [[ "$rc" == "124" ]]; then
    echo "check_all: step '$title' timed out after ${STEP_TIMEOUT}s" >&2
  fi
  return "$rc"
}

step "[1/8] tier-1: configure + build" bash -c \
  "cmake -B build -S . && cmake --build build -j '$JOBS'"
step "[1/8] tier-1: ctest" ctest --test-dir build -j "$JOBS" --output-on-failure

step "[2/8] determinism audit" tools/check_determinism.sh build

step "[3/8] crash forensics: bundle + triage" tools/check_triage.sh build

step "[4/8] ASan + UBSan" tools/check_sanitize.sh

step "[5/8] TSan (worker pool, JSONL ledger, runner replay helper, fork+signal)" \
  tools/check_tsan.sh

step "[6/8] telemetry: schema, trace, transparency, overhead" tools/check_telemetry.sh build

step "[7/8] paper results pinned to paperbench/reference.json" \
  tools/check_paperbench.sh

if [[ "$SKIP_PERF" == "1" ]]; then
  echo "===== [8/8] perf gate: SKIPPED ====="
else
  step "[8/8] perf gate" tools/check_perf.sh build
fi

echo "check_all: OK"
