#!/usr/bin/env bash
# Telemetry gate: prove the TelemetryHub's four contracts end to end.
#
#   1. Schema: a DASE-Fair co-run with --telemetry-out produces JSONL whose
#      header carries the schema id and no dropped trace events, and whose
#      body has exactly one record per estimation interval, each with
#      per-app estimated + actual slowdowns and the Eq. 26 error
#      (validated with python3's json module — no third-party deps).
#   2. Trace: --trace-out produces well-formed Chrome trace-event JSON
#      (Perfetto-loadable): a traceEvents array with per-app epoch spans,
#      at least one migration drain span for a repartitioning policy, and
#      counter tracks.
#   3. Transparency: enabling every telemetry flag changes neither the
#      printed result (stdout byte-identity) nor the simulated state
#      (--audit-determinism stays green with flags set), and a kill+resume
#      run rewrites byte-identical telemetry files (check_determinism.sh
#      covers the kill half; here we assert flag on/off identity).
#   4. Overhead: the hub's attached-vs-absent throughput ratio holds the
#      <=2% floor (a small relative-only bench run).
#
#   tools/check_telemetry.sh [build-dir]     (default: build)
#
# Environment:
#   GPUSIM_TELEMETRY_CYCLES   co-run length (default 300000; must span
#                             several 50K-cycle estimation intervals)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CYCLES="${GPUSIM_TELEMETRY_CYCLES:-300000}"
CLI="$BUILD_DIR/tools/gpusim_cli"

if [[ ! -x "$CLI" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target gpusim_cli
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== telemetry files from a 16-SM SD+SA DASE-Fair co-run"
"$CLI" --apps SD,SA --policy dase-fair --cycles "$CYCLES" \
       --telemetry-out "$TMP/run.telemetry.jsonl" \
       --trace-out "$TMP/run.trace.json" > "$TMP/on.txt"

echo "== JSONL schema: one record per interval, estimates + actuals + error"
python3 - "$TMP/run.telemetry.jsonl" "$CYCLES" <<'EOF'
import json, sys
path, cycles = sys.argv[1], int(sys.argv[2])
lines = [json.loads(l) for l in open(path)]
header, records = lines[0], lines[1:]
assert header["schema"] == "gpusim-telemetry-v2", header
assert header["apps"] == ["SD", "SA"], header
assert header["records"] == len(records), (header["records"], len(records))
# Every drained flight-recorder event reaches the trace: a dropped one
# could be a migration handover the drain spans are built from.
assert header["trace_events_dropped"] == 0, header
expected = cycles // header["interval"]
assert len(records) == expected, (len(records), expected)
for i, r in enumerate(records):
    assert r["epoch"] == i, r
    assert r["length"] == header["interval"], r
    assert len(r["apps"]) == 2, r
    for app in r["apps"]:
        assert app["sms"] >= 1, app
        assert isinstance(app["estimates"]["DASE"], (int, float)), app
        assert isinstance(app["actual_slowdown"], (int, float)), app
        assert isinstance(app["error"]["DASE"], (int, float)), app
    assert 0.0 <= r["dram_bw_util"] <= 1.0, r
print(f"   {len(records)} records, schema OK")
EOF

echo "== trace: well-formed, epoch spans, migration drain, counters"
python3 - "$TMP/run.trace.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
ev = t["traceEvents"]
assert all({"ph", "name", "pid"} <= set(e) for e in ev), "malformed event"
spans = [e for e in ev if e["ph"] == "X"]
assert any(e["name"].startswith("epoch") for e in spans), "no epoch spans"
assert any(e["name"].startswith("migration drain") for e in spans), \
    "no migration drain span in a repartitioning run"
assert any(e["ph"] == "C" for e in ev), "no counter tracks"
assert any(e["ph"] == "M" for e in ev), "no thread-name metadata"
print(f"   {len(ev)} events, {len(spans)} spans, trace OK")
EOF

echo "== transparency: printed result identical with telemetry off"
"$CLI" --apps SD,SA --policy dase-fair --cycles "$CYCLES" \
       > "$TMP/off.txt"
cmp "$TMP/on.txt" "$TMP/off.txt"

echo "== transparency: determinism audit green with telemetry flags set"
"$CLI" --apps SD,SA --audit-determinism --cycles 100000 \
       --telemetry-out "$TMP/audit.jsonl" --trace-out "$TMP/audit.trace"

echo "== batch form: sweep writes per-label files under the directory"
"$CLI" --sweep random:1 --cycles 60000 --telemetry-out "$TMP/teldir" \
       --out "$TMP/sweep.json" > /dev/null
count=$(find "$TMP/teldir" -name '*.telemetry.jsonl' | wc -l)
if [[ "$count" -lt 1 ]]; then
  echo "FAIL: sweep wrote no per-label telemetry files" >&2
  exit 1
fi
echo "   $count per-pair series file(s)"

echo "== overhead: hub attached-vs-absent ratio holds the 0.98 floor"
GPUSIM_PERF_RELATIVE_ONLY=1 BENCH_CYCLES=150000 BENCH_SWEEP_PAIRS=1 \
  BENCH_SWEEP_CYCLES=20000 tools/check_perf.sh "$BUILD_DIR" \
  | grep -E "telemetry_overhead_ratio|perf check"

echo "telemetry check: OK"
