#!/usr/bin/env bash
# Chaos gate: run a bounded fault-injection campaign through the CLI and
# prove the three ChaosLab properties end-to-end on the real binary:
#
#   1. every job classifies into one of the four outcome classes (the
#      report's outcome counts sum to the campaign size);
#   2. the campaign report is byte-identical for any worker count;
#   3. a failing job's minimized reproducer replays through
#      --fault-schedule to a failure (non-zero or watchdog/typed-error
#      exit), and recovery visibly changes the outcome of a canonical
#      dropped-response fault;
#   4. resuming past a checkpoint whose last line a crash cut in half
#      exits 5, reproduces the report bytes, and still names every
#      failing job with its gpusim_cli replay command;
#   5. the run limits apply: a lapsed --deadline-ms stops the campaign
#      (exit 7), and the co-run budgets are refused (exit 2).
#
#   tools/check_chaos.sh [build-dir]     (default: build)
#
# Environment:
#   GPUSIM_CHAOS_SCHEDULES   campaign size (default 12)
#   GPUSIM_CHAOS_CYCLES      cycle budget per job (default 20000)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SCHEDULES="${GPUSIM_CHAOS_SCHEDULES:-12}"
CYCLES="${GPUSIM_CHAOS_CYCLES:-20000}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== chaos campaign ($SCHEDULES schedules, $CYCLES cycles, serial)"
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 1 --out "$TMP/serial.json"

echo "== same campaign, 4 workers: report must be byte-identical"
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 4 --out "$TMP/parallel.json" > /dev/null
cmp "$TMP/serial.json" "$TMP/parallel.json"

echo "== outcome counts must sum to the campaign size"
python3 - "$TMP/serial.json" "$SCHEDULES" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))["chaos_campaign"]
total = sum(report["outcomes"].values())
assert set(report["outcomes"]) == {"recovered", "guard-caught",
                                   "wrong-result", "hang"}, report["outcomes"]
assert total == int(sys.argv[2]), (total, sys.argv[2])
assert len(report["jobs"]) == int(sys.argv[2])
for job in report["jobs"]:
    assert job["detail"], job
    assert job["replay"], job
print(f"   {report['outcomes']}")
EOF

echo "== recovery flips the canonical dropped-response outcome"
# Recovery on: the reissue path absorbs the drop and the run completes.
"$CLI" --apps SD,SA --cycles 100000 \
       --fault-schedule 'drop-resp:nth=200' | grep -q 'outcome recovered'
# Recovery off: the conservation audit must catch the leak instead.
"$CLI" --apps SD,SA --cycles 100000 --no-recovery \
       --fault-schedule 'drop-resp:nth=200' | grep -q 'outcome guard-caught'

echo "== a minimized reproducer from the report replays to a failure"
python3 - "$TMP/serial.json" <<'EOF' > "$TMP/replay.txt"
import json, sys
report = json.load(open(sys.argv[1]))["chaos_campaign"]
failing = [j for j in report["jobs"] if j["outcome"] != "recovered"]
print(failing[0]["replay"] if failing else "")
EOF
REPLAY="$(cat "$TMP/replay.txt")"
if [[ -n "$REPLAY" ]]; then
  # The stored command starts with "gpusim_cli"; run it via the built CLI.
  eval "\"$CLI\" ${REPLAY#gpusim_cli}" > "$TMP/replayed.txt" 2>&1
  if ! grep -Eq 'outcome (guard-caught|wrong-result|hang)' "$TMP/replayed.txt"; then
    echo "error: minimized reproducer did not replay to a failure" >&2
    cat "$TMP/replayed.txt" >&2
    exit 1
  fi
  echo "   replayed: $REPLAY"
else
  echo "   (campaign had no failing jobs at this size — skipping replay)"
fi

echo "== torn checkpoint: resume exits 5, same bytes, every failure named"
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 4 --checkpoint "$TMP/ckpt.jsonl" --out "$TMP/ckpt.json" \
       > /dev/null
# Cut the last checkpoint line in half, the way a kill mid-write leaves it.
python3 - "$TMP/ckpt.jsonl" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines()
last = lines.pop()
with open(path, "w") as f:
    f.write("".join(line + "\n" for line in lines) + last[: len(last) // 2])
EOF
RC=0
"$CLI" --chaos "$SCHEDULES" --chaos-seed 7 --cycles "$CYCLES" \
       --jobs 4 --checkpoint "$TMP/ckpt.jsonl" --out "$TMP/resumed.json" \
       > "$TMP/resumed.txt" 2> "$TMP/resumed.err" || RC=$?
if [[ "$RC" != "5" ]]; then
  echo "error: resume past a torn checkpoint exited $RC, expected 5" >&2
  cat "$TMP/resumed.err" >&2
  exit 1
fi
cmp "$TMP/serial.json" "$TMP/resumed.json"
python3 - "$TMP/serial.json" "$TMP/resumed.txt" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))["chaos_campaign"]
failing = [j for j in report["jobs"] if j["outcome"] != "recovered"]
printed = [l.strip() for l in open(sys.argv[2]) if l.strip().startswith("[")]
assert len(printed) == len(failing), (printed, len(failing))
for job, line in zip(failing, printed):
    head = f"[{job['index']}] {job['workload']} {job['outcome']}"
    assert line.startswith(head), (line, head)
    assert job["replay"].startswith("gpusim_cli "), job
    assert line.endswith(": " + job["replay"]), (line, job["replay"])
print(f"   {len(failing)} failing jobs printed with their replay commands")
EOF

echo "== a lapsed deadline stops the campaign with exit 7"
RC=0
"$CLI" --chaos 2 --deadline-ms 1 --out "$TMP/deadline.json" \
       > /dev/null 2>&1 || RC=$?
[[ "$RC" == "7" ]] || { echo "error: --deadline-ms 1 exited $RC, expected 7" >&2; exit 1; }

echo "== a co-run cycle budget is a usage error for --chaos"
RC=0
"$CLI" --chaos 2 --cycle-budget 1000 --out "$TMP/budget.json" \
       > /dev/null 2>&1 || RC=$?
[[ "$RC" == "2" ]] || { echo "error: --cycle-budget exited $RC, expected 2" >&2; exit 1; }

echo "chaos check: OK"
