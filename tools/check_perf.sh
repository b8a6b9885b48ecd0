#!/usr/bin/env bash
# Performance gate: run bench_sim_throughput, write a fresh
# BENCH_throughput.json, and fail if cycles/sec regressed more than the
# tolerance against the committed baseline at the repo root.
#
#   tools/check_perf.sh [--update] [build-dir]   (default: build)
#
#   --update   overwrite the committed BENCH_throughput.json with the
#              fresh measurement (do this when the perf profile changes
#              intentionally, or when switching measurement hosts —
#              wall-clock baselines are machine-specific)
#
# Environment:
#   GPUSIM_PERF_TOLERANCE             allowed fractional regression for the
#                                     legacy cycles/sec keys (default 0.15)
#   GPUSIM_PERF_TOLERANCE_CONTENDED   allowed fractional regression for the
#                                     contended-scenario keys (default 0.10)
#   GPUSIM_PERF_RELATIVE_ONLY         1 = skip the absolute cycles/sec gates
#                                     (for CI hosts with unknown wall-clock
#                                     performance); still asserts the schema
#                                     keys exist, the activity engine's
#                                     contended speedup meets
#                                     GPUSIM_PERF_MIN_SPEEDUP (default 1.2),
#                                     and the governor overhead ratio meets
#                                     GPUSIM_PERF_MIN_GOVERNOR_RATIO
#                                     (default 0.98, i.e. <=2% overhead)
#   GPUSIM_PERF_MIN_TELEMETRY_RATIO   floor for the telemetry hub's
#                                     attached-vs-absent throughput ratio
#                                     (default 0.98, i.e. <=2% overhead while
#                                     no output flag is set; gated even in
#                                     relative-only mode)
set -euo pipefail

cd "$(dirname "$0")/.."

UPDATE=0
if [[ "${1:-}" == "--update" ]]; then
  UPDATE=1
  shift
fi
BUILD_DIR="${1:-build}"
TOLERANCE="${GPUSIM_PERF_TOLERANCE:-0.15}"
TOLERANCE_CONTENDED="${GPUSIM_PERF_TOLERANCE_CONTENDED:-0.10}"
RELATIVE_ONLY="${GPUSIM_PERF_RELATIVE_ONLY:-0}"
MIN_SPEEDUP="${GPUSIM_PERF_MIN_SPEEDUP:-1.2}"
MIN_GOVERNOR_RATIO="${GPUSIM_PERF_MIN_GOVERNOR_RATIO:-0.98}"
MIN_TELEMETRY_RATIO="${GPUSIM_PERF_MIN_TELEMETRY_RATIO:-0.98}"
BASELINE="BENCH_throughput.json"
FRESH="$BUILD_DIR/BENCH_throughput.json"

if [[ ! -x "$BUILD_DIR/bench/bench_sim_throughput" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_sim_throughput
fi

"$BUILD_DIR/bench/bench_sim_throughput" "$FRESH"

# The baseline format keeps one key per line, so plain awk can read it.
json_key() {  # json_key FILE KEY
  awk -F'[:,]' -v key="\"$2\"" '$1 ~ key { gsub(/[ "]/, "", $2); print $2 }' "$1"
}

fail=0

# Schema keys every fresh measurement must carry (the profiler attribution
# rides along so the contended number is always explainable).
for key in sim_cycles_per_sec \
           contended_cycles_per_sec contended_cycles_per_sec_no_activity \
           contended_activity_speedup \
           governor_on_cycles_per_sec governor_off_cycles_per_sec \
           governor_overhead_ratio \
           telemetry_on_cycles_per_sec telemetry_off_cycles_per_sec \
           telemetry_overhead_ratio \
           profile_sm_advance_ns profile_partition_ns profile_total_ns; do
  if [[ -z "$(json_key "$FRESH" "$key")" ]]; then
    echo "FAIL: key $key missing from fresh measurement"
    fail=1
  fi
done

# The activity engine's contended speedup is host-independent (same binary,
# same run, engine on vs off), so it is gated even in relative-only mode.
speedup=$(json_key "$FRESH" contended_activity_speedup)
ok=$(awk -v s="${speedup:-0}" -v min="$MIN_SPEEDUP" \
     'BEGIN { print (s >= min) ? 1 : 0 }')
if [[ "$ok" == 1 ]]; then
  echo "OK:   contended_activity_speedup ${speedup}x (floor ${MIN_SPEEDUP}x)"
else
  echo "FAIL: contended_activity_speedup ${speedup}x below floor ${MIN_SPEEDUP}x"
  fail=1
fi

# The governor overhead is also host-independent (same binary, same co-run,
# governor on vs off), so the <=2% overhead contract (DESIGN.md §14) is
# gated even in relative-only mode.
gov_ratio=$(json_key "$FRESH" governor_overhead_ratio)
ok=$(awk -v r="${gov_ratio:-0}" -v min="$MIN_GOVERNOR_RATIO" \
     'BEGIN { print (r >= min) ? 1 : 0 }')
if [[ "$ok" == 1 ]]; then
  echo "OK:   governor_overhead_ratio ${gov_ratio} (floor ${MIN_GOVERNOR_RATIO})"
else
  echo "FAIL: governor_overhead_ratio ${gov_ratio} below floor ${MIN_GOVERNOR_RATIO}"
  fail=1
fi

# The telemetry hub's disabled-path cost is likewise host-independent (same
# binary, same co-run, hub attached vs absent), so the <=2% contract
# (DESIGN.md §15) is gated even in relative-only mode.
tel_ratio=$(json_key "$FRESH" telemetry_overhead_ratio)
ok=$(awk -v r="${tel_ratio:-0}" -v min="$MIN_TELEMETRY_RATIO" \
     'BEGIN { print (r >= min) ? 1 : 0 }')
if [[ "$ok" == 1 ]]; then
  echo "OK:   telemetry_overhead_ratio ${tel_ratio} (floor ${MIN_TELEMETRY_RATIO})"
else
  echo "FAIL: telemetry_overhead_ratio ${tel_ratio} below floor ${MIN_TELEMETRY_RATIO}"
  fail=1
fi

if [[ "$UPDATE" == 1 || ! -f "$BASELINE" ]]; then
  if [[ "$fail" != 0 ]]; then
    echo "perf check failed — not updating the baseline"
    exit 1
  fi
  cp "$FRESH" "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi

if [[ "$RELATIVE_ONLY" == 1 ]]; then
  if [[ "$fail" != 0 ]]; then
    echo "perf check failed (relative-only mode)"
    exit 1
  fi
  echo "perf check passed (relative-only mode; absolute gates skipped)"
  exit 0
fi

gate_key() {  # gate_key KEY TOLERANCE
  local key="$1" tol="$2" base fresh ok pct
  base=$(json_key "$BASELINE" "$key")
  fresh=$(json_key "$FRESH" "$key")
  if [[ -z "$base" || -z "$fresh" ]]; then
    echo "FAIL: key $key missing from baseline or fresh measurement"
    fail=1
    return
  fi
  ok=$(awk -v b="$base" -v f="$fresh" -v tol="$tol" \
       'BEGIN { print (f >= b * (1.0 - tol)) ? 1 : 0 }')
  pct=$(awk -v b="$base" -v f="$fresh" 'BEGIN { printf "%+.1f", 100.0 * (f - b) / b }')
  if [[ "$ok" == 1 ]]; then
    echo "OK:   $key $fresh vs baseline $base (${pct}%)"
  else
    echo "FAIL: $key regressed beyond ${tol}: $fresh vs baseline $base (${pct}%)"
    fail=1
  fi
}

# The plain loop and the escape-hatch (engine-off) number get the looser
# legacy tolerance: the engine-off run is the slowest measurement and
# therefore the noisiest in wall-clock terms; pathological engine-off
# regressions are still caught by the speedup floor above inverting.
for key in sim_cycles_per_sec contended_cycles_per_sec_no_activity; do
  gate_key "$key" "$TOLERANCE"
done
gate_key contended_cycles_per_sec "$TOLERANCE_CONTENDED"

if [[ "$fail" != 0 ]]; then
  echo "perf check failed — investigate, or refresh intentionally with tools/check_perf.sh --update"
  exit 1
fi
echo "perf check passed (tolerance ${TOLERANCE}, contended ${TOLERANCE_CONTENDED})"
