#!/usr/bin/env bash
# Determinism gate: run representative workloads through the CLI's
# state-hash divergence audit (activity engine vs per-cycle walk,
# including under a fault schedule, with the MISE/ASM epoch hook, with
# DASE-Fair's SM drains and with the temporal policy), run the randomized
# activity-engine equivalence suite, and verify a snapshotted + resumed
# run's report is byte-identical to an uninterrupted one.  A clean pass
# means the execution-strategy knobs cannot change simulated output.
#
#   tools/check_determinism.sh [build-dir]     (default: build)
#
# Environment:
#   GPUSIM_DETERMINISM_CYCLES   audit run length (default 120000)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CYCLES="${GPUSIM_DETERMINISM_CYCLES:-120000}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

# Memory-heavy, compute-heavy and mixed pairs, plus a four-app workload
# and a pair light enough for whole stretches of sleeping components.
WORKLOADS=("SD,SA" "SN,CT" "VA,CT,SD,SN" "BS,QR")

for apps in "${WORKLOADS[@]}"; do
  echo "== audit --apps $apps (activity engine vs per-cycle walk, $CYCLES cycles)"
  "$CLI" --apps "$apps" --audit-determinism --cycles "$CYCLES" \
         --hash-every 10000
done

# A fault schedule pins the engine to the per-cycle walk; audit that the
# pinning itself is invisible.
echo "== audit --apps SD,SA under a fault schedule"
"$CLI" --apps SD,SA --audit-determinism --cycles "$CYCLES" \
       --fault-schedule "drop-resp:nth=200;stall:part=0,from=1000,until=5000;seed=7"

# The stretches that run on the engine through hooks and drains: the
# MISE/ASM priority-epoch hook, DASE-Fair's SM drains (its first
# repartition lands after two intervals, so run past it), and the temporal
# policy's full-GPU switches.
echo "== audit --apps BS,SD --models dase,mise,asm (priority-epoch hook)"
"$CLI" --apps BS,SD --models dase,mise,asm --audit-determinism \
       --cycles "$CYCLES" --hash-every 10000
echo "== audit --apps CT,SP --policy dase-fair (SM drains)"
"$CLI" --apps CT,SP --policy dase-fair --audit-determinism --cycles 300000 \
       --hash-every 10000
echo "== audit --apps CS,QR --policy temporal (hooked drains)"
"$CLI" --apps CS,QR --policy temporal --quantum 30000 --audit-determinism \
       --cycles "$CYCLES" --hash-every 10000

# Randomized equivalence suite: 36 random configs (SM/partition counts,
# queue depths, retry knobs) x {plain, faults, mid-run repartition,
# snapshot/restore, priority epochs, temporal policy}, engine on vs off.
echo "== activity_sched_test (randomized engine-on/off equivalence)"
if [[ ! -x "$BUILD_DIR/tests/activity_sched_test" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target activity_sched_test
fi
"$BUILD_DIR/tests/activity_sched_test"

# Snapshot/resume determinism: a run snapshotted every 20K cycles must
# print byte-identical results to a plain run.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
echo "== snapshot vs plain run output"
"$CLI" --apps SD,SA --cycles "$CYCLES" > "$TMP/plain.txt"
"$CLI" --apps SD,SA --cycles "$CYCLES" \
       --snapshot-every 20000 --snapshot-dir "$TMP/snaps" > "$TMP/snap.txt"
diff "$TMP/plain.txt" "$TMP/snap.txt"

# Telemetry determinism: the hub's buffers ride in the SimState walk, so a
# run killed mid-flight and resumed from its snapshot must rewrite
# byte-identical JSONL/trace/metrics files.
echo "== telemetry files: kill + resume vs uninterrupted"
TCYC=600000
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" \
       --telemetry-out "$TMP/ref.jsonl" --trace-out "$TMP/ref.trace" \
       --metrics-out "$TMP/ref.prom" > /dev/null
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" \
       --snapshot-every 50000 --snapshot-dir "$TMP/tsnaps" \
       --telemetry-out "$TMP/kill.jsonl" --trace-out "$TMP/kill.trace" \
       --metrics-out "$TMP/kill.prom" > /dev/null 2>&1 &
CLI_PID=$!
# Signal as soon as the first snapshot lands so the kill is mid-run.
for _ in $(seq 1 600); do
  if ls "$TMP"/tsnaps/*.simstate > /dev/null 2>&1; then
    kill -TERM "$CLI_PID"
    break
  fi
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.05
done
wait "$CLI_PID" || true
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" \
       --snapshot-every 50000 --snapshot-dir "$TMP/tsnaps" \
       --telemetry-out "$TMP/kill.jsonl" --trace-out "$TMP/kill.trace" \
       --metrics-out "$TMP/kill.prom" > /dev/null 2>&1
cmp "$TMP/ref.jsonl" "$TMP/kill.jsonl"
cmp "$TMP/ref.trace" "$TMP/kill.trace"
cmp "$TMP/ref.prom" "$TMP/kill.prom"

# Batch telemetry determinism: per-pair files and the sweep results must be
# byte-identical for any --jobs worker count.
echo "== sweep telemetry files: --jobs 1 vs --jobs 4"
"$CLI" --sweep random:3 --cycles 40000 --jobs 1 \
       --telemetry-out "$TMP/teldir1" --out "$TMP/tel1.json" > /dev/null 2>&1
"$CLI" --sweep random:3 --cycles 40000 --jobs 4 \
       --telemetry-out "$TMP/teldir4" --out "$TMP/tel4.json" > /dev/null 2>&1
diff -r "$TMP/teldir1" "$TMP/teldir4"
cmp "$TMP/tel1.json" "$TMP/tel4.json"

echo "determinism check: OK"
