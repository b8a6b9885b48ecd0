#!/usr/bin/env bash
# Crash-forensics gate: prove the black-box flight-recorder pipeline
# end-to-end on the real CLI binary:
#
#   1. an SM drain that outlives --watchdog in a plain DASE-Fair run (on
#      the activity engine: no fault is armed) emits a complete crash
#      bundle (manifest + snapshot + config + events) and exits 3;
#   2. `--triage <bundle>` restores the bundled state, replays to the
#      recorded failure cycle, and VERIFIES the 64-bit state hash
#      bit-exactly (exit 0);
#   3. the same holds for a watchdog-proven hang under fault injection
#      (a --fault-schedule run, which pins the per-cycle walk), and for a
#      temporal run with a non-default --quantum whose first switch
#      stalls past its anchor snapshot, which triage re-executes from; a
#      rerun under another quantum skips the killed run's stale snapshot
#      and prints exactly what a fresh run prints;
#   4. corruption is contained: a tampered manifest hash makes triage
#      report divergence (exit 4), a truncated snapshot is a typed
#      failure (exit 3), --no-bundle suppresses emission entirely, and a
#      SIGTERM drain (how `timeout --foreground -s TERM` bounds a run's
#      wall time) exits 6 without a bundle;
#   5. --version prints the build fingerprint that bundles and manifests
#      embed;
#   6. a run that could never make progress fails up front instead of
#      reporting starved applications: a thread block wider than an SM's
#      warp contexts is a typed config error (exit 3), and an SM geometry
#      with no block slots or more warps than the warp masks hold is a
#      rejected --config file (exit 2).
#
#   tools/check_triage.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== --version prints the build fingerprint"
"$CLI" --version | grep -q "fingerprint 0x"

echo "== a drain stalled past the watchdog exits 3 with a complete bundle"
RC=0
"$CLI" --apps VA,SD --policy dase-fair --cycles 300000 --watchdog 50000 \
       --bundle-dir "$TMP/bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
RUN_BUNDLE="$(find "$TMP/bundles" -maxdepth 1 -name 'run-*' | head -1)"
[[ -n "$RUN_BUNDLE" ]] || { echo "no run bundle published" >&2; exit 1; }
for f in manifest.json snapshot.simstate config.txt events.txt; do
  [[ -f "$RUN_BUNDLE/$f" ]] || { echo "bundle missing $f" >&2; exit 1; }
done
grep -q '"error_kind": "migration-stalled"' "$RUN_BUNDLE/manifest.json" ||
  { echo "the bundle does not record a migration stall" >&2; exit 1; }
if find "$TMP/bundles" -maxdepth 1 -name '.tmp-*' | grep -q .; then
  echo "unpublished .tmp- work dir left behind" >&2; exit 1
fi

echo "== --triage replays the run bundle to a bit-exact VERIFIED"
"$CLI" --triage "$RUN_BUNDLE" | grep -q "triage: VERIFIED"

echo "== watchdog hang under faults exits 3, bundles and triages too"
RC=0
"$CLI" --apps SD,SA --cycles 40000 --watchdog 5000 \
       --fault-schedule 'stall:part=0,from=2000' \
       --bundle-dir "$TMP/hang-bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
HANG_BUNDLE="$(find "$TMP/hang-bundles" -maxdepth 1 -name 'run-*' | head -1)"
[[ -n "$HANG_BUNDLE" ]] || { echo "no hang bundle published" >&2; exit 1; }
"$CLI" --triage "$HANG_BUNDLE" | grep -q "triage: VERIFIED"

echo "== a non-default --quantum reaches the bundle and the snapshot"
TEMPORAL=(--apps CT,SP --policy temporal --cycles 200000)
RC=0
# The first switch is still draining 20K cycles after its request: a
# migration stall at cycle 40960, after the snapshot at 40000.
"$CLI" "${TEMPORAL[@]}" --quantum 20000 --snapshot-every 40000 \
       --snapshot-dir "$TMP/snaps" --watchdog 20000 \
       --bundle-dir "$TMP/quantum-bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
QUANTUM_BUNDLE="$(find "$TMP/quantum-bundles" -maxdepth 1 -name 'run-*' |
                  head -1)"
[[ -f "$QUANTUM_BUNDLE/anchor.simstate" ]] ||
  { echo "quantum bundle has no anchor snapshot" >&2; exit 1; }
"$CLI" --triage "$QUANTUM_BUNDLE" | grep -q "triage: VERIFIED"
"$CLI" "${TEMPORAL[@]}" --quantum 70000 --snapshot-every 40000 \
       --snapshot-dir "$TMP/snaps" --no-bundle \
       > "$TMP/requantum.out" 2> "$TMP/requantum.err"
grep -q "ignoring unusable snapshot" "$TMP/requantum.err" ||
  { echo "a snapshot from another quantum was not skipped" >&2; exit 1; }
"$CLI" "${TEMPORAL[@]}" --quantum 70000 --no-bundle > "$TMP/fresh.out"
cmp "$TMP/requantum.out" "$TMP/fresh.out"

echo "== tampered recorded hash => divergence (exit 4)"
cp -r "$RUN_BUNDLE" "$TMP/tampered"
sed -i -E 's/"failure_state_hash": [0-9]+/"failure_state_hash": 12345/' \
    "$TMP/tampered/manifest.json"
RC=0
"$CLI" --triage "$TMP/tampered" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "4" ]] || { echo "expected exit 4, got $RC" >&2; exit 1; }

echo "== truncated snapshot => typed failure (exit 3)"
cp -r "$RUN_BUNDLE" "$TMP/truncated"
head -c 100 "$RUN_BUNDLE/snapshot.simstate" > "$TMP/truncated/snapshot.simstate"
RC=0
"$CLI" --triage "$TMP/truncated" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }

echo "== --no-bundle suppresses emission"
CLI_ABS="$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")"
mkdir -p "$TMP/nobundle"
RC=0
( cd "$TMP/nobundle" &&
  "$CLI_ABS" --apps SD,SA --cycles 20000 --watchdog 3000 \
             --fault-schedule 'stall:part=0,from=1000' --no-bundle ) \
  > /dev/null 2>&1 || RC=$?
[[ "$RC" == "3" ]] || { echo "expected exit 3, got $RC" >&2; exit 1; }
if [[ -e "$TMP/nobundle/crash-bundles" ]]; then
  echo "--no-bundle still wrote crash-bundles/" >&2; exit 1
fi

echo "== a SIGTERM drain exits 6 and publishes no bundle"
RC=0
# The co-run is far longer than the one second timeout allows.  Without
# --foreground, timeout signals the CLI and then its process group, and
# that second SIGTERM hard-exits 130 instead of draining.
timeout --foreground --preserve-status -s TERM 1 \
        "$CLI" --apps SD,SA --cycles 50000000 \
        --bundle-dir "$TMP/term-bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "6" ]] || { echo "expected exit 6, got $RC" >&2; exit 1; }
if [[ -e "$TMP/term-bundles" ]]; then
  echo "a graceful drain wrote a crash bundle" >&2; exit 1
fi

echo "== a thread block that can never be resident is a config error (exit 3)"
printf 'max_warps_per_sm=4\n' > "$TMP/narrow.cfg"
RC=0
"$CLI" --apps SD,SA --cycles 60000 --config "$TMP/narrow.cfg" \
       --bundle-dir "$TMP/narrow-bundles" > /dev/null 2> "$TMP/narrow.err" ||
  RC=$?
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

echo "check_triage: OK"
