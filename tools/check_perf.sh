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
#                                     keys exist and the activity engine's
#                                     contended speedup meets
#                                     GPUSIM_PERF_MIN_SPEEDUP (default 1.2)
#   GPUSIM_PERF_MIN_TELEMETRY_RATIO   floor for the telemetry hub's
#                                     attached-vs-absent throughput ratio
#                                     (default 0.98, i.e. <=2% overhead while
#                                     no output flag is set; gated even in
#                                     relative-only mode)
#
# replay_overlap_speedup (one paper unit, replays after the co-run over
# ExperimentRunner::run, which replays every slot beside the co-run) has a
# fixed floor of 1.15 on hosts with at least two hardware threads, gated
# even in relative-only mode.
#
# simulation_heap_kib (the heap one default one-app Simulation holds; each
# slot's replay keeps one live beside the co-run) may exceed the committed
# baseline by at most 5%.  It does not depend on host speed, so it is gated
# even in relative-only mode; --update re-records it.
#
# allocs_per_kcycle (heap allocations per 1,000 cycles of the timed
# contended loop) may exceed the committed baseline by at most 5% plus one
# allocation per kcycle, so a count near zero does not fail on a few
# allocations a different standard library makes.  It counts calls, not
# time, so it is gated even in relative-only mode; --update re-records it.
#
# profile_sm_advance_visits and profile_partition_visits (how many SM and
# partition visits the activity engine makes in the profiled contended
# loop) may exceed the committed baseline by at most 5%.  The simulation is
# deterministic, so the counts depend on the code alone, not on the host:
# a count that grows means the engine visits components it used to let
# sleep.  Gated even in relative-only mode; --update re-records them.
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
MIN_TELEMETRY_RATIO="${GPUSIM_PERF_MIN_TELEMETRY_RATIO:-0.98}"
MIN_REPLAY_OVERLAP=1.15
MAX_HEAP_GROWTH=0.05
MAX_ALLOC_GROWTH=0.05
MAX_VISIT_GROWTH=0.05
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
           contended_activity_speedup contended_profiled_cycles_per_sec \
           telemetry_on_cycles_per_sec telemetry_off_cycles_per_sec \
           telemetry_overhead_ratio replay_overlap_speedup \
           simulation_heap_kib allocs_per_kcycle \
           profile_sm_advance_ns profile_partition_ns profile_total_ns \
           profile_sm_advance_visits profile_partition_visits; do
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

# The telemetry hub's disabled-path cost is also host-independent (same
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

# Overlapping every slot's alone replay with its co-run (DESIGN.md §8) is
# likewise host-independent (same binary, same unit, replays after the
# co-run vs. through ExperimentRunner::run), but it needs a second hardware
# thread to pay off, so a single-threaded host skips the floor.
overlap=$(json_key "$FRESH" replay_overlap_speedup)
hw_threads=$(json_key "$FRESH" host_hw_threads)
if [[ "${hw_threads:-1}" -lt 2 ]]; then
  echo "SKIP: replay_overlap_speedup ${overlap}x (floor needs 2 hardware threads, host has ${hw_threads:-1})"
else
  ok=$(awk -v s="${overlap:-0}" -v min="$MIN_REPLAY_OVERLAP" \
       'BEGIN { print (s >= min) ? 1 : 0 }')
  if [[ "$ok" == 1 ]]; then
    echo "OK:   replay_overlap_speedup ${overlap}x (floor ${MIN_REPLAY_OVERLAP}x)"
  else
    echo "FAIL: replay_overlap_speedup ${overlap}x below floor ${MIN_REPLAY_OVERLAP}x"
    fail=1
  fi
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

# One live simulation per replay slot: the heap each one holds is the same
# on every host, so a growth past MAX_HEAP_GROWTH fails in relative-only
# mode too.
heap_base=$(json_key "$BASELINE" simulation_heap_kib)
heap=$(json_key "$FRESH" simulation_heap_kib)
if [[ -z "$heap_base" ]]; then
  echo "FAIL: key simulation_heap_kib missing from baseline $BASELINE"
  fail=1
else
  ok=$(awk -v b="$heap_base" -v f="${heap:-0}" -v tol="$MAX_HEAP_GROWTH" \
       'BEGIN { print (f <= b * (1.0 + tol)) ? 1 : 0 }')
  if [[ "$ok" == 1 ]]; then
    echo "OK:   simulation_heap_kib ${heap} vs baseline ${heap_base} (ceiling +${MAX_HEAP_GROWTH})"
  else
    echo "FAIL: simulation_heap_kib ${heap} exceeds baseline ${heap_base} by more than ${MAX_HEAP_GROWTH}"
    fail=1
  fi
fi

# The allocation count is a property of the code, not of the host, so it is
# gated in relative-only mode too.
allocs_base=$(json_key "$BASELINE" allocs_per_kcycle)
allocs=$(json_key "$FRESH" allocs_per_kcycle)
if [[ -z "$allocs_base" ]]; then
  echo "FAIL: key allocs_per_kcycle missing from baseline $BASELINE"
  fail=1
else
  ok=$(awk -v b="$allocs_base" -v f="${allocs:-0}" -v tol="$MAX_ALLOC_GROWTH" \
       'BEGIN { print (f <= b * (1.0 + tol) + 1.0) ? 1 : 0 }')
  if [[ "$ok" == 1 ]]; then
    echo "OK:   allocs_per_kcycle ${allocs} vs baseline ${allocs_base} (ceiling +${MAX_ALLOC_GROWTH} + 1)"
  else
    echo "FAIL: allocs_per_kcycle ${allocs} exceeds baseline ${allocs_base} by more than ${MAX_ALLOC_GROWTH} + 1"
    fail=1
  fi
fi

# Visit counts are properties of the engine, not of the host, so they are
# gated in relative-only mode too.
for key in profile_sm_advance_visits profile_partition_visits; do
  visits_base=$(json_key "$BASELINE" "$key")
  visits=$(json_key "$FRESH" "$key")
  if [[ -z "$visits_base" ]]; then
    echo "FAIL: key $key missing from baseline $BASELINE"
    fail=1
    continue
  fi
  ok=$(awk -v b="$visits_base" -v f="${visits:-0}" -v tol="$MAX_VISIT_GROWTH" \
       'BEGIN { print (f <= b * (1.0 + tol)) ? 1 : 0 }')
  if [[ "$ok" == 1 ]]; then
    echo "OK:   $key ${visits} vs baseline ${visits_base} (ceiling +${MAX_VISIT_GROWTH})"
  else
    echo "FAIL: $key ${visits} exceeds baseline ${visits_base} by more than ${MAX_VISIT_GROWTH}"
    fail=1
  fi
done

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
