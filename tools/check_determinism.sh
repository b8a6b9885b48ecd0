#!/usr/bin/env bash
# Determinism gate: run representative workloads through the CLI's
# state-hash divergence audit (activity engine vs per-cycle walk,
# including under a fault schedule, with the MISE/ASM epoch hook, with
# DASE-Fair's SM drains and with an app starved by a zero-SM split), run
# the randomized activity-engine equivalence suite, and verify a
# snapshotted + resumed run's report is byte-identical to an
# uninterrupted one, as are a sweep's results at any worker count and
# after a resume past a torn checkpoint line, that a checkpoint resumed
# under another --cycles re-runs its pairs instead of replaying them, and
# that a count flag above INT_MAX is a usage error rather than a wrapped
# run.  A clean pass means the execution-strategy knobs cannot change
# simulated output.
#
# Then the CLI's failure contract: a failed co-run exits 3 and leaves
# nothing but its stride snapshot, and rerunning the same command resumes
# from that snapshot and fails again at the same cycle (that is how a
# failure reproduces); a snapshot from another --split is skipped; a
# SIGTERM drain under plain timeout exits 6; the paper's 5M-cycle length
# runs; config mistakes exit 3 (a block no SM can hold, or a figure
# binary's malformed REPRO_* variable) or 2 (a rejected --config file);
# and --version prints the build fingerprint.
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
# MISE/ASM priority-epoch hook and DASE-Fair's SM drains (its first
# repartition lands after two intervals, so run past it); and LEFTOVER's
# zero-SM split, whose starved app has work but no SM all run long.
echo "== audit --apps BS,SD --models dase,mise,asm (priority-epoch hook)"
"$CLI" --apps BS,SD --models dase,mise,asm --audit-determinism \
       --cycles "$CYCLES" --hash-every 10000
echo "== audit --apps CT,SP --policy dase-fair (SM drains)"
"$CLI" --apps CT,SP --policy dase-fair --audit-determinism --cycles 300000 \
       --hash-every 10000
echo "== audit --apps CS,QR --split 16,0 (starved app)"
"$CLI" --apps CS,QR --split 16,0 --audit-determinism --cycles "$CYCLES" \
       --hash-every 10000

# Randomized equivalence suite: 36 random configs (SM/partition counts,
# queue depths) x {plain, faults, mid-run repartition,
# snapshot/restore, priority epochs, whole-GPU turns}, engine on vs off.
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
# byte-identical JSONL and trace files.
echo "== telemetry files: kill + resume vs uninterrupted"
TCYC=600000
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" \
       --telemetry-out "$TMP/ref.jsonl" --trace-out "$TMP/ref.trace" > /dev/null
"$CLI" --apps SD,SA --policy dase-fair --cycles "$TCYC" \
       --snapshot-every 50000 --snapshot-dir "$TMP/tsnaps" \
       --telemetry-out "$TMP/kill.jsonl" --trace-out "$TMP/kill.trace" \
       > /dev/null 2>&1 &
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
       > /dev/null 2>&1
cmp "$TMP/ref.jsonl" "$TMP/kill.jsonl"
cmp "$TMP/ref.trace" "$TMP/kill.trace"

# Batch telemetry determinism: per-pair files and the sweep results must be
# byte-identical for any --jobs worker count.
echo "== sweep telemetry files: --jobs 1 vs --jobs 4"
"$CLI" --sweep random:3 --cycles 40000 --jobs 1 \
       --telemetry-out "$TMP/teldir1" --out "$TMP/tel1.json" > /dev/null 2>&1
"$CLI" --sweep random:3 --cycles 40000 --jobs 4 \
       --telemetry-out "$TMP/teldir4" --out "$TMP/tel4.json" > /dev/null 2>&1
diff -r "$TMP/teldir1" "$TMP/teldir4"
cmp "$TMP/tel1.json" "$TMP/tel4.json"

# Torn checkpoint: cut the last ledger line in half, the way a kill
# mid-write leaves it; the resume re-runs that pair, exits 5 and writes
# the same results bytes.
echo "== torn sweep checkpoint: resume exits 5, same bytes"
"$CLI" --sweep random:3 --cycles 40000 --jobs 4 \
       --checkpoint "$TMP/torn.jsonl" --out "$TMP/torn-ref.json" > /dev/null
python3 - "$TMP/torn.jsonl" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines()
last = lines.pop()
with open(path, "w") as f:
    f.write("".join(line + "\n" for line in lines) + last[: len(last) // 2])
EOF
RC=0
"$CLI" --sweep random:3 --cycles 40000 --jobs 4 \
       --checkpoint "$TMP/torn.jsonl" --out "$TMP/torn-resumed.json" \
       > /dev/null 2> "$TMP/torn.err" || RC=$?
if [[ "$RC" != "5" ]]; then
  echo "error: resume past a torn checkpoint exited $RC, expected 5" >&2
  cat "$TMP/torn.err" >&2
  exit 1
fi
cmp "$TMP/torn-ref.json" "$TMP/torn-resumed.json"
# The resume dropped the torn line from the checkpoint: a second resume
# skips nothing, replays every pair and exits 0.
"$CLI" --sweep random:3 --cycles 40000 --jobs 4 \
       --checkpoint "$TMP/torn.jsonl" --out "$TMP/torn-again.json" \
       > "$TMP/torn-again.out"
grep -q "3 resumed from checkpoint, 0 failed" "$TMP/torn-again.out" ||
  { cat "$TMP/torn-again.out" >&2; exit 1; }
cmp "$TMP/torn-ref.json" "$TMP/torn-again.json"

# Stale checkpoint: each line carries its co-run's fingerprint, which
# covers --cycles, so a resume at another length must write what a fresh
# run at that length writes, not the old length's results.
echo "== stale sweep checkpoint: a resume at another --cycles re-runs"
"$CLI" --sweep random:2 --cycles 20000 \
       --checkpoint "$TMP/stale.jsonl" --out "$TMP/stale-20k.json" > /dev/null
"$CLI" --sweep random:2 --cycles 30000 \
       --checkpoint "$TMP/stale.jsonl" --out "$TMP/stale-30k.json" > /dev/null
"$CLI" --sweep random:2 --cycles 30000 --out "$TMP/fresh-30k.json" > /dev/null
cmp "$TMP/stale-30k.json" "$TMP/fresh-30k.json"

# Every sweep pair runs under the even split, so the flags that shape one
# --apps co-run are usage errors with --sweep, never silently ignored.
echo "== per-run flags are rejected by --sweep (exit 2)"
for flags in "--policy dase-fair" "--split 4,12" \
             "--fault-schedule drop-resp:nth=200"; do
  RC=0
  # shellcheck disable=SC2086  # $flags is a flag and its value
  "$CLI" --sweep random:1 --cycles 20000 $flags --out "$TMP/rejected.json" \
         > /dev/null 2> "$TMP/rejected.err" || RC=$?
  if [[ "$RC" != "2" ]] || ! grep -q "does not apply to sweeps" "$TMP/rejected.err"; then
    echo "error: --sweep with $flags exited $RC, expected a usage error (2)" >&2
    cat "$TMP/rejected.err" >&2
    exit 1
  fi
done
if [[ -e "$TMP/rejected.json" ]]; then
  echo "error: a rejected sweep wrote its results file" >&2
  exit 1
fi

# A count the CLI holds as an int must fit one: 4294967297 used to wrap
# to 1 (one pair, one worker) and 4294967300 to a 4-SM split, exit 0.
echo "== counts above INT_MAX are usage errors (exit 2), never wrapped"
for flags in "--apps SD,SA --split 4294967300,12" \
             "--sweep random:4294967297" \
             "--sweep random:1 --jobs 4294967297"; do
  RC=0
  # shellcheck disable=SC2086  # $flags is a list of flags and values
  "$CLI" $flags --cycles 20000 --out "$TMP/wrapped.json" \
         > /dev/null 2> "$TMP/wrapped.err" || RC=$?
  if [[ "$RC" != "2" ]] || ! grep -q "must be at most 2147483647" "$TMP/wrapped.err"; then
    echo "error: $flags exited $RC, expected a usage error (2)" >&2
    cat "$TMP/wrapped.err" >&2
    exit 1
  fi
done
if [[ -e "$TMP/wrapped.json" ]]; then
  echo "error: a rejected count still ran a sweep" >&2
  exit 1
fi

echo "== --version prints the build fingerprint"
"$CLI" --version | grep -q "fingerprint 0x"

# VA+SD's first DASE-Fair drain outlives a 50K-cycle watchdog (healthy
# drains take up to ~440K cycles): a migration stall at cycle 150528 on the
# activity engine, after the stride snapshot at 150000.  The failed run
# leaves that snapshot and nothing else; the same command again resumes
# from it and fails at the same cycle.
echo "== a failed run exits 3 and its rerun resumes to the same error"
CLI_ABS="$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")"
mkdir -p "$TMP/vasd"
STALL=(--apps VA,SD --policy dase-fair --cycles 300000 --watchdog 50000
       --snapshot-every 50000 --snapshot-dir snaps)
for attempt in first rerun; do
  RC=0
  ( cd "$TMP/vasd" && "$CLI_ABS" "${STALL[@]}" ) \
    > /dev/null 2> "$TMP/vasd-$attempt.err" || RC=$?
  if [[ "$RC" != "3" ]] ||
     ! grep -q "simulation error \[migration-stalled\]" "$TMP/vasd-$attempt.err" ||
     ! grep -q "cycle: 150528" "$TMP/vasd-$attempt.err"; then
    echo "error: $attempt VA+SD run exited $RC, expected a migration stall" \
         "(3) at cycle 150528" >&2
    cat "$TMP/vasd-$attempt.err" >&2
    exit 1
  fi
done
if grep -q "resumed" "$TMP/vasd-first.err" ||
   ! grep -q "resumed VA+SD from snapshot .* at cycle 150000" \
        "$TMP/vasd-rerun.err"; then
  echo "error: the rerun did not resume from the stride at 150000" >&2
  cat "$TMP/vasd-first.err" "$TMP/vasd-rerun.err" >&2
  exit 1
fi
if [[ "$(ls -A "$TMP/vasd")" != "snaps" ]]; then
  echo "error: a failed run left more than its snapshot directory:" >&2
  ls -A "$TMP/vasd" >&2
  exit 1
fi

echo "== a watchdog hang under faults exits 3"
RC=0
"$CLI" --apps SD,SA --cycles 40000 --watchdog 5000 \
       --fault-schedule 'stall:part=0,from=2000' > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }

echo "== a snapshot from another --split is skipped, not resumed"
FAIR=(--apps CT,SP --policy dase-fair --cycles 200000)
RC=0
# From 4+12 the first repartition is still draining 20K cycles after its
# request: a migration stall at cycle 120832, after the snapshot at 120000.
"$CLI" "${FAIR[@]}" --split 4,12 --snapshot-every 40000 \
       --snapshot-dir "$TMP/ssnaps" --watchdog 20000 > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
"$CLI" "${FAIR[@]}" --split 12,4 --snapshot-every 40000 \
       --snapshot-dir "$TMP/ssnaps" > "$TMP/resplit.out" 2> "$TMP/resplit.err"
grep -q "ignoring unusable snapshot" "$TMP/resplit.err" ||
  { echo "a snapshot from another split was not skipped" >&2; exit 1; }
"$CLI" "${FAIR[@]}" --split 12,4 > "$TMP/fresh.out"
cmp "$TMP/resplit.out" "$TMP/fresh.out"

echo "== a SIGTERM drain under plain timeout exits 6"
RC=0
# The co-run is far longer than the one second timeout allows.  timeout
# signals the CLI and then its process group; the second SIGTERM arrives
# within the repeat window, so it is the same drain request, not the
# hard exit (130).
timeout --preserve-status -s TERM 1 \
        "$CLI" --apps SD,SA --cycles 50000000 > /dev/null 2>&1 || RC=$?
[[ "$RC" == "6" ]] || { echo "expected exit 6, got $RC" >&2; exit 1; }

# NN's alone replay needs more than 3M cycles at this length (its slowdown
# is about 1.5), which the old fixed max_alone_cycles cut off with exit 8.
echo "== the paper's 5M-cycle co-run length runs (exit 0)"
"$CLI" --apps NN,SD --cycles 5000000 > /dev/null

echo "== a thread block that can never be resident is a config error (exit 3)"
printf 'max_warps_per_sm=4\n' > "$TMP/narrow.cfg"
RC=0
"$CLI" --apps SD,SA --cycles 60000 --config "$TMP/narrow.cfg" \
       > /dev/null 2> "$TMP/narrow.err" || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
grep -q "simulation error \[config\]" "$TMP/narrow.err" &&
  grep -q "warps_per_block: 8" "$TMP/narrow.err" ||
  { echo "the rejection does not name the block's warps" >&2; exit 1; }
for bad in max_blocks_per_sm=0 max_blocks_per_sm=-1 max_warps_per_sm=65; do
  echo "$bad" > "$TMP/bad.cfg"
  RC=0
  "$CLI" --apps SD,SA --cycles 60000 --config "$TMP/bad.cfg" \
         > /dev/null 2>&1 || RC=$?
  [[ "$RC" == "2" ]] || { echo "$bad: expected exit 2, got $RC" >&2; exit 1; }
done

# A figure binary reports a malformed REPRO_* variable the way the CLI
# reports a simulation error, instead of aborting in std::terminate.
echo "== figure binaries exit 3 on a malformed REPRO_* variable"
FIG5="$BUILD_DIR/bench/fig5_two_app_error"
FIG9="$BUILD_DIR/bench/fig9_dase_fair"
if [[ ! -x "$FIG5" || ! -x "$FIG9" ]]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
        --target fig5_two_app_error fig9_dase_fair
fi
for run in "REPRO_PAIR_LIMIT=4294967297 $FIG5" \
           "REPRO_CORUN_CYCLES=5e6 $FIG9"; do
  RC=0
  env $run > /dev/null 2> "$TMP/fig.err" || RC=$?
  if [[ "$RC" != "3" ]] ||
     ! grep -q "simulation error \[config\]" "$TMP/fig.err"; then
    echo "error: '$run' exited $RC, expected a config error (3)" >&2
    cat "$TMP/fig.err" >&2
    exit 1
  fi
done

echo "determinism check: OK"
