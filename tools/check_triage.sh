#!/usr/bin/env bash
# Crash-forensics gate: prove the black-box flight-recorder pipeline
# end-to-end on the real CLI binary:
#
#   1. a cycle-budget kill in a plain run emits a complete crash bundle
#      (manifest + snapshot + config + events) and exits with its
#      documented code (8); a lapsed wall-clock deadline bundles too and
#      exits 7;
#   2. `--triage <bundle>` restores the bundled state, replays to the
#      recorded failure cycle, and VERIFIES the 64-bit state hash
#      bit-exactly (exit 0);
#   3. the same holds for a watchdog-proven hang under fault injection
#      (the --fault-schedule chaos path), and for a temporal run with a
#      non-default --quantum that triage re-executes from its anchor; a
#      rerun under another quantum skips the killed run's stale snapshot
#      and prints exactly what a fresh run prints;
#   4. corruption is contained: a tampered manifest hash makes triage
#      report divergence (exit 4), a truncated snapshot is a typed
#      failure (exit 3), and --no-bundle suppresses emission entirely;
#   5. --version prints the build fingerprint that bundles and manifests
#      embed.
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

echo "== budget kill emits a complete bundle and exits 8"
RC=0
"$CLI" --apps SD,SA --cycles 60000 --cycle-budget 20000 \
       --bundle-dir "$TMP/bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "8" ]] || { echo "expected exit 8, got $RC" >&2; exit 1; }
RUN_BUNDLE="$(find "$TMP/bundles" -maxdepth 1 -name 'run-*' | head -1)"
[[ -n "$RUN_BUNDLE" ]] || { echo "no run bundle published" >&2; exit 1; }
for f in manifest.json snapshot.simstate config.txt events.txt; do
  [[ -f "$RUN_BUNDLE/$f" ]] || { echo "bundle missing $f" >&2; exit 1; }
done
if find "$TMP/bundles" -maxdepth 1 -name '.tmp-*' | grep -q .; then
  echo "unpublished .tmp- work dir left behind" >&2; exit 1
fi

echo "== a blown wall-clock deadline bundles and exits 7"
RC=0
"$CLI" --apps SD,SA --cycles 5000000 --deadline-ms 1 \
       --bundle-dir "$TMP/deadline-bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "7" ]] || { echo "expected exit 7, got $RC" >&2; exit 1; }
if ! find "$TMP/deadline-bundles" -maxdepth 1 -name 'run-*' | grep -q .; then
  echo "no run bundle published for the deadline kill" >&2; exit 1
fi

echo "== --triage replays the run bundle to a bit-exact VERIFIED"
"$CLI" --triage "$RUN_BUNDLE" | grep -q "triage: VERIFIED"

echo "== watchdog hang under faults bundles and triages too"
RC=0
"$CLI" --apps SD,SA --cycles 40000 --watchdog 5000 \
       --fault-schedule 'stall:part=0,from=2000' --no-recovery \
       --bundle-dir "$TMP/bundles" > /dev/null 2>&1 || RC=$?
# the chaos replay classifies the hang and exits 0; the bundle still lands
CHAOS_BUNDLE="$(find "$TMP/bundles" -maxdepth 1 -name 'chaos-*' | head -1)"
[[ -n "$CHAOS_BUNDLE" ]] || { echo "no chaos bundle published" >&2; exit 1; }
"$CLI" --triage "$CHAOS_BUNDLE" | grep -q "triage: VERIFIED"

echo "== a non-default --quantum reaches the bundle and the snapshot"
TEMPORAL=(--apps CT,SP --policy temporal --cycles 200000)
RC=0
"$CLI" "${TEMPORAL[@]}" --quantum 20000 --snapshot-every 40000 \
       --snapshot-dir "$TMP/snaps" --cycle-budget 60000 \
       --bundle-dir "$TMP/quantum-bundles" > /dev/null 2>&1 || RC=$?
[[ "$RC" == "8" ]] || { echo "expected exit 8, got $RC" >&2; exit 1; }
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
  "$CLI_ABS" --apps SD,SA --cycles 60000 --cycle-budget 20000 --no-bundle ) \
  > /dev/null 2>&1 || RC=$?
[[ "$RC" == "8" ]] || { echo "expected exit 8, got $RC" >&2; exit 1; }
if [[ -e "$TMP/nobundle/crash-bundles" ]]; then
  echo "--no-bundle still wrote crash-bundles/" >&2; exit 1
fi

echo "check_triage: OK"
