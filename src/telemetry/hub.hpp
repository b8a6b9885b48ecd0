// TelemetryHub: deterministic per-interval observability for every run mode.
//
// Design rule #1: the hub ALWAYS records.  It is attached as the last
// interval observer of every assembled co-run — whether or not a
// --telemetry-out or --trace-out flag was given — and the CLI flags only
// control which files get written at flush time.  That one decision buys
// all three hard contracts at once:
//
//   - On/off state-hash identity: telemetry cannot perturb the simulation
//     because enabling it changes nothing inside the determinism boundary;
//     the observer walk is identical either way.
//   - Kill + resume byte-identity: the hub's buffers are serialized in the
//     SimState walk (section tag "TELE"), so a resumed run flushes exactly
//     the bytes the uninterrupted run would have flushed.
//   - Hot-path cost is structurally zero: the hub does work only at
//     estimation-interval boundaries (every 50K cycles), never per cycle.
//
// Memory stays bounded and deterministic: at most kMaxRecords per-interval
// records and kMaxTraceEvents drained flight-recorder events are held;
// overflow increments serialized drop counters instead of growing.
//
// The hub taps, rather than owns, its sources: the flight recorder is
// drained incrementally through its lifetime counter (its FrEvent kinds
// name the Perfetto export's instants and spans), and estimators are read
// through their public latest() snapshots.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/loop_profiler.hpp"
#include "common/simstate.hpp"
#include "common/types.hpp"
#include "dase/estimator.hpp"
#include "gpu/simulator.hpp"

namespace gpusim {

/// Where telemetry goes.  Single-run modes use the two file paths
/// directly; a sweep sets `dir` and every unit writes
/// `<dir>/<sanitized-label>.telemetry.jsonl` and `.trace.json` instead.
struct TelemetryPaths {
  std::string series;  ///< --telemetry-out: schema-versioned JSONL
  std::string trace;   ///< --trace-out: Chrome trace-event JSON (Perfetto)
  std::string dir;     ///< batch modes: per-label files under this directory

  bool any() const {
    return !series.empty() || !trace.empty() || !dir.empty();
  }
};

/// A named estimator the hub samples each interval (attachment order fixes
/// the per-record estimate column order and the JSONL naming).
struct TelemetryEstimatorTap {
  std::string name;  ///< "DASE", "MISE", "ASM"
  const SlowdownEstimator* estimator = nullptr;
};

/// One estimator's view of one app in one interval.
struct TelemetryEstimateSample {
  bool valid = false;
  double slowdown = 1.0;  ///< slowdown_all (vs. running alone on all SMs)
};

/// One app's slice of one interval record.
struct TelemetryAppSample {
  u64 instructions = 0;     ///< issued this interval
  u64 requests_served = 0;  ///< DRAM requests this interval
  u64 l2_accesses = 0;      ///< this interval
  u64 l2_hits = 0;          ///< this interval
  i32 num_sms = 0;          ///< partition size at interval end
  double alpha = 0.0;       ///< memory-stall fraction
  std::vector<TelemetryEstimateSample> estimates;  ///< one per tap
};

/// One estimation interval (epoch).  DRAM counters are stored as cumulative
/// grand totals; exporters diff consecutive records to get interval rates,
/// which keeps the record a pure function of simulated state.
struct TelemetryRecord {
  u64 epoch = 0;    ///< 0-based interval index
  Cycle start = 0;  ///< first cycle of the interval
  Cycle length = 0;
  u64 dram_requests = 0;    ///< cumulative, summed over partitions
  u64 dram_row_hits = 0;    ///< cumulative
  u64 dram_row_misses = 0;  ///< cumulative
  u64 dram_bus_data_cycles = 0;  ///< cumulative
  bool migration_in_progress = false;
  std::vector<u64> resp_queue_high_water;  ///< per partition, monotone
  std::vector<TelemetryAppSample> apps;
};

class TelemetryHub final : public IntervalObserver {
 public:
  static constexpr std::size_t kMaxRecords = 8192;
  static constexpr std::size_t kMaxTraceEvents = 8192;

  explicit TelemetryHub(std::vector<TelemetryEstimatorTap> estimators)
      : taps_(std::move(estimators)) {}

  void on_interval(const IntervalSample& sample, Gpu& gpu) override;

  const std::vector<TelemetryRecord>& records() const { return records_; }
  const std::vector<FlightEvent>& trace_events() const { return trace_events_; }
  u64 epochs_seen() const { return epochs_seen_; }
  u64 records_dropped() const { return records_dropped_; }
  u64 trace_events_dropped() const { return trace_events_dropped_; }

  // -- SimState ----------------------------------------------------------
  // The buffers are part of the observer walk so kill+resume replays them
  // byte-for-byte.  The shape depends only on the assembly (app count,
  // partition count, tap count), never on CLI output flags, so telemetry-on
  // and telemetry-off runs hash identically by construction.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("TELE");
    s.put_u64(epochs_seen_);
    s.put_u64(records_dropped_);
    s.put_u64(static_cast<u64>(records_.size()));
    for (const TelemetryRecord& r : records_) {
      s.put_u64(r.epoch);
      s.put_u64(r.start);
      s.put_u64(r.length);
      s.put_u64(r.dram_requests);
      s.put_u64(r.dram_row_hits);
      s.put_u64(r.dram_row_misses);
      s.put_u64(r.dram_bus_data_cycles);
      s.put_bool(r.migration_in_progress);
      s.put_u32(static_cast<u32>(r.resp_queue_high_water.size()));
      for (const u64 v : r.resp_queue_high_water) s.put_u64(v);
      s.put_u32(static_cast<u32>(r.apps.size()));
      for (const TelemetryAppSample& a : r.apps) {
        s.put_u64(a.instructions);
        s.put_u64(a.requests_served);
        s.put_u64(a.l2_accesses);
        s.put_u64(a.l2_hits);
        s.put_i32(a.num_sms);
        s.put_double(a.alpha);
        s.put_u32(static_cast<u32>(a.estimates.size()));
        for (const TelemetryEstimateSample& e : a.estimates) {
          s.put_bool(e.valid);
          s.put_double(e.slowdown);
        }
      }
    }
    s.put_u64(fr_seen_);
    s.put_u64(trace_events_dropped_);
    s.put_u64(static_cast<u64>(trace_events_.size()));
    for (const FlightEvent& e : trace_events_) {
      s.put_u64(e.cycle);
      s.put_u8(static_cast<u8>(e.kind));
      s.put_i32(e.unit);
      s.put_i32(e.app);
      s.put_u64(e.a);
      s.put_u64(e.b);
    }
  }
  void save_state(StateWriter& w) const override { write_state(w); }
  void hash_state(Hasher& h) const override { write_state(h); }
  void load_state(StateReader& r) override;

 private:
  std::vector<TelemetryEstimatorTap> taps_;

  u64 epochs_seen_ = 0;
  u64 records_dropped_ = 0;
  std::vector<TelemetryRecord> records_;

  u64 fr_seen_ = 0;  ///< flight-recorder lifetime counter at last drain
  u64 trace_events_dropped_ = 0;  ///< evicted before drain, or over cap
  std::vector<FlightEvent> trace_events_;
};

/// Everything the exporters need that is not simulated state: naming, the
/// end-of-run alone-IPC baselines for actual-slowdown columns, and crash
/// context when flushing from a failure path.
struct TelemetryFlushContext {
  std::string label;
  std::vector<std::string> apps;        ///< abbr per app slot
  std::vector<std::string> estimators;  ///< must match the hub's tap order
  Cycle interval_length = 0;
  Cycle final_cycle = 0;
  std::vector<double> ipc_alone;  ///< empty = unknown (no actual columns)
  const LoopProfiler* profiler = nullptr;  ///< merged as trace counter tracks
  bool crashed = false;
  std::string crash_kind;
  Cycle crash_cycle = 0;
};

/// `<dir>/<sanitized-label><suffix>` (used by batch modes and tests).
std::string telemetry_file_for(const std::string& dir, const std::string& label,
                               const std::string& suffix);

/// Expands `paths.dir` (batch mode) into concrete per-label file paths;
/// explicit single-run paths pass through unchanged.
TelemetryPaths resolve_telemetry_paths(const TelemetryPaths& paths,
                                       const std::string& label);

void write_telemetry_jsonl(const std::string& path, const TelemetryHub& hub,
                           const TelemetryFlushContext& ctx);
void write_trace_json(const std::string& path, const TelemetryHub& hub,
                      const TelemetryFlushContext& ctx);

/// Writes whichever of the (already resolved) paths are non-empty.  All
/// writes are atomic (tmp + rename) and parent directories are created.
void flush_telemetry(const TelemetryHub& hub, const TelemetryPaths& resolved,
                     const TelemetryFlushContext& ctx);

}  // namespace gpusim
