#!/usr/bin/env bash
# Configure, build and run the concurrency tests under ThreadSanitizer.
# Used before merging anything that touches the shared worker pool, the
# JSONL ledger's append locking or the runner's chased replays; a clean
# pass means no data races across the worker threads, the ledger mutex,
# the index-ordered assembly and the co-run/replay hand-offs.
#
#   tools/check_tsan.sh [build-dir]            (default: build-tsan)
#
# Runs only the concurrency-heavy tests by default (a full TSan suite run
# is slow): the sweep, the JSONL ledger's concurrent appends, the runner
# (the co-run feeding one replay helper per slot, and
# the helpers' abort when the co-run or an earlier slot's replay fails) and
# the fork+signal kill/resume and shutdown tests, whose children run those
# helpers too.  Pass a ctest -R pattern as $2 to narrow or widen.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
FILTER="${2:-sweep|jsonl|runner|kill_resume|shutdown_signal}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir "$BUILD_DIR" -R "$FILTER" -j "$(nproc)" --output-on-failure
