#!/usr/bin/env bash
# Configure, build and run the batch-engine tests under ThreadSanitizer.
# Used before merging anything that touches the shared worker pool or the
# JSONL ledger's append locking; a clean pass means no data races across
# the worker threads, the ledger mutex and the index-ordered assembly.
#
#   tools/check_tsan.sh [build-dir]            (default: build-tsan)
#
# Runs only the concurrency-heavy tests by default — the sweep, the JSONL
# ledger's concurrent appends, the JobManager batch tests and the chaos
# campaign (a full TSan suite run is slow); pass a ctest -R pattern as $2
# to widen.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
FILTER="${2:-sweep|jsonl|job_manager|jobs_kill_resume|chaos}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir "$BUILD_DIR" -R "$FILTER" -j "$(nproc)" --output-on-failure
