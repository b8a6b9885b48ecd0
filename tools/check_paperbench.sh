#!/usr/bin/env bash
# Pinned-results gate: run each paper-artifact workload of paperbench/ once
# at its default seed and fail unless the run reports "correct": true and no
# failed unit.  "correct" means every unit finished and the results digest
# (a hash over every simulated statistic the workload reports) equals the
# one pinned in paperbench/reference.json, so a change that moves any
# simulated number fails here.  run.py itself exits 0 on a digest mismatch;
# this script reads the verdict from its last output line, a JSON object.
#
#   tools/check_paperbench.sh
#
# The first run builds paperbench/ into .bench_build/paperbench.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for workload in fig5-estimate fig9-fair paper-scale; do
  echo "== paperbench $workload (seed 1)"
  if ! out="$(python3 paperbench/run.py --workload "$workload" --seed 1 \
                --seconds 1 --trace 0)"; then
    echo "FAIL: $workload: paperbench/run.py exited with an error"
    fail=1
    continue
  fi
  printf '%s\n' "$out" | grep -E '^(digest|units|CHECK FAILED)' || true
  verdict="$(printf '%s\n' "$out" | tail -n 1)"
  if python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$verdict"; then
    echo "OK:   $workload"
  else
    echo "FAIL: $workload: $verdict"
    fail=1
  fi
done

if [[ "$fail" != 0 ]]; then
  echo "paperbench check failed — a simulated result moved or a unit failed"
  exit 1
fi
echo "paperbench check: OK"
