#include "telemetry/hub.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "gpu/gpu.hpp"
#include "mem/dram.hpp"
#include "mem/partition.hpp"
#include "metrics/metrics.hpp"

namespace gpusim {

void TelemetryHub::on_interval(const IntervalSample& sample, Gpu& gpu) {
  ++epochs_seen_;

  // Drain the flight recorder through its lifetime counter.  Events the
  // bounded ring already evicted between interval boundaries (or that spill
  // over our own cap) are counted, never silently lost.
  const FlightRecorder& fr = gpu.flight_recorder();
  if (fr.total_recorded() != fr_seen_) {
    const u64 fresh = fr.total_recorded() - fr_seen_;
    const std::vector<FlightEvent> held = fr.events_in_order();
    const u64 have = std::min<u64>(fresh, held.size());
    trace_events_dropped_ += fresh - have;
    for (std::size_t i = held.size() - static_cast<std::size_t>(have);
         i < held.size(); ++i) {
      if (trace_events_.size() < kMaxTraceEvents) {
        trace_events_.push_back(held[i]);
      } else {
        ++trace_events_dropped_;
      }
    }
    fr_seen_ = fr.total_recorded();
  }

  if (records_.size() >= kMaxRecords) {
    ++records_dropped_;
    return;
  }

  TelemetryRecord rec;
  rec.epoch = epochs_seen_ - 1;
  rec.start = sample.start;
  rec.length = sample.length;
  rec.migration_in_progress = gpu.migration_in_progress();
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const McCounters& mcc = gpu.partition(p).mc().counters();
    rec.dram_requests += mcc.requests_served.grand_total();
    rec.dram_row_hits += mcc.row_hits.grand_total();
    rec.dram_row_misses += mcc.row_misses.grand_total();
    rec.dram_bus_data_cycles += mcc.bus_data_cycles.grand_total();
    rec.resp_queue_high_water.push_back(fr.resp_high_water(p));
  }
  rec.apps.reserve(sample.apps.size());
  for (std::size_t i = 0; i < sample.apps.size(); ++i) {
    const AppIntervalData& ad = sample.apps[i];
    TelemetryAppSample as;
    as.instructions = ad.instructions;
    as.requests_served = ad.requests_served;
    as.l2_accesses = ad.l2_accesses;
    as.l2_hits = ad.l2_hits;
    as.num_sms = ad.num_sms;
    as.alpha = ad.alpha;
    as.estimates.reserve(taps_.size());
    for (const TelemetryEstimatorTap& tap : taps_) {
      TelemetryEstimateSample es;
      const std::vector<SlowdownEstimate>& latest = tap.estimator->latest();
      if (i < latest.size()) {
        es.valid = latest[i].valid;
        es.slowdown = latest[i].slowdown_all;
      }
      as.estimates.push_back(es);
    }
    rec.apps.push_back(std::move(as));
  }
  records_.push_back(std::move(rec));
}

void TelemetryHub::load_state(StateReader& r) {
  r.expect_tag("TELE");
  epochs_seen_ = r.get_u64();
  records_dropped_ = r.get_u64();
  const u64 nrec = r.get_count(kMaxRecords, "telemetry records");
  records_.clear();
  records_.reserve(static_cast<std::size_t>(nrec));
  for (u64 i = 0; i < nrec; ++i) {
    TelemetryRecord rec;
    rec.epoch = r.get_u64();
    rec.start = r.get_u64();
    rec.length = r.get_u64();
    rec.dram_requests = r.get_u64();
    rec.dram_row_hits = r.get_u64();
    rec.dram_row_misses = r.get_u64();
    rec.dram_bus_data_cycles = r.get_u64();
    rec.migration_in_progress = r.get_bool();
    const u32 nparts = r.get_u32();
    rec.resp_queue_high_water.resize(nparts);
    for (u64& v : rec.resp_queue_high_water) v = r.get_u64();
    const u32 napps = r.get_u32();
    rec.apps.resize(napps);
    for (TelemetryAppSample& a : rec.apps) {
      a.instructions = r.get_u64();
      a.requests_served = r.get_u64();
      a.l2_accesses = r.get_u64();
      a.l2_hits = r.get_u64();
      a.num_sms = r.get_i32();
      a.alpha = r.get_double();
      const u32 nest = r.get_u32();
      a.estimates.resize(nest);
      for (TelemetryEstimateSample& e : a.estimates) {
        e.valid = r.get_bool();
        e.slowdown = r.get_double();
      }
    }
    records_.push_back(std::move(rec));
  }
  fr_seen_ = r.get_u64();
  trace_events_dropped_ = r.get_u64();
  const u64 nev = r.get_count(kMaxTraceEvents, "telemetry trace events");
  trace_events_.clear();
  trace_events_.reserve(static_cast<std::size_t>(nev));
  for (u64 i = 0; i < nev; ++i) {
    FlightEvent e;
    e.cycle = r.get_u64();
    const u8 kind = r.get_u8();
    SIM_CHECK(kind < kNumFrEvents,
              SimError(SimErrorKind::kSnapshot, "telemetry.hub",
                       "unknown event kind in telemetry buffer")
                  .detail("kind", static_cast<int>(kind)));
    e.kind = static_cast<FrEvent>(kind);
    e.unit = r.get_i32();
    e.app = checked_event_app(r.get_i32(), "telemetry.hub");
    e.a = r.get_u64();
    e.b = r.get_u64();
    trace_events_.push_back(e);
  }
}

std::string label_file_stem(const std::string& label) {
  std::string name;
  name.reserve(label.size());
  for (char c : label) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '-' || c == '_' || c == '.' || c == '+';
    name += safe ? c : '_';
  }
  return name.empty() ? std::string("unnamed") : name;
}

TelemetryPaths resolve_telemetry_paths(const TelemetryPaths& paths,
                                       const std::string& label) {
  TelemetryPaths out = paths;
  if (!paths.dir.empty()) {
    const std::string stem = paths.dir + "/" + label_file_stem(label);
    out.series = stem + ".telemetry.jsonl";
    out.trace = stem + ".trace.json";
    out.dir.clear();
  }
  return out;
}

namespace {

/// Interval "actual" slowdown: alone IPC over this interval's shared IPC.
/// Returns NaN when the baseline is unknown or the app issued nothing.
double interval_actual_slowdown(const TelemetryAppSample& a,
                                const TelemetryRecord& r,
                                const TelemetryFlushContext& ctx,
                                std::size_t app) {
  if (app >= ctx.ipc_alone.size() || r.length == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double ipc_shared =
      static_cast<double>(a.instructions) / static_cast<double>(r.length);
  if (ipc_shared <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return ctx.ipc_alone[app] / ipc_shared;
}

void append_number_or_null(std::ostringstream& ss, double v) {
  if (std::isfinite(v)) {
    ss << fmt_double(v);
  } else {
    ss << "null";
  }
}

}  // namespace

void write_telemetry_jsonl(const std::string& path, const TelemetryHub& hub,
                           const TelemetryFlushContext& ctx) {
  std::ostringstream ss;
  ss << "{\"schema\":\"gpusim-telemetry-v2\",\"label\":\""
     << json_escape(ctx.label) << "\",\"interval\":" << ctx.interval_length
     << ",\"final_cycle\":" << ctx.final_cycle << ",\"apps\":[";
  for (std::size_t i = 0; i < ctx.apps.size(); ++i) {
    ss << (i ? "," : "") << '"' << json_escape(ctx.apps[i]) << '"';
  }
  ss << "],\"estimators\":[";
  for (std::size_t i = 0; i < ctx.estimators.size(); ++i) {
    ss << (i ? "," : "") << '"' << json_escape(ctx.estimators[i]) << '"';
  }
  ss << "],\"records\":" << hub.records().size()
     << ",\"records_dropped\":" << hub.records_dropped()
     << ",\"trace_events_dropped\":" << hub.trace_events_dropped();
  if (ctx.crashed) {
    ss << ",\"crashed\":true,\"crash_kind\":\"" << json_escape(ctx.crash_kind)
       << "\",\"crash_cycle\":" << ctx.crash_cycle;
  }
  ss << "}\n";

  const TelemetryRecord* prev = nullptr;
  for (const TelemetryRecord& r : hub.records()) {
    const u64 p_bus = prev ? prev->dram_bus_data_cycles : 0;
    const u64 p_hits = prev ? prev->dram_row_hits : 0;
    const u64 p_miss = prev ? prev->dram_row_misses : 0;
    const u64 p_req = prev ? prev->dram_requests : 0;
    const u64 d_hits = r.dram_row_hits - p_hits;
    const u64 d_miss = r.dram_row_misses - p_miss;
    const std::size_t nparts = r.resp_queue_high_water.size();
    const double bw_util =
        (r.length == 0 || nparts == 0)
            ? 0.0
            : static_cast<double>(r.dram_bus_data_cycles - p_bus) /
                  (static_cast<double>(r.length) * static_cast<double>(nparts));
    ss << "{\"epoch\":" << r.epoch << ",\"start\":" << r.start
       << ",\"length\":" << r.length << ",\"migration\":"
       << (r.migration_in_progress ? "true" : "false")
       << ",\"dram_requests_delta\":" << (r.dram_requests - p_req)
       << ",\"dram_bw_util\":" << fmt_double(bw_util)
       << ",\"dram_row_hit_rate\":";
    if (d_hits + d_miss == 0) {
      ss << "null";
    } else {
      ss << fmt_double(static_cast<double>(d_hits) /
                       static_cast<double>(d_hits + d_miss));
    }
    ss << ",\"resp_queue_high_water\":[";
    for (std::size_t p = 0; p < nparts; ++p) {
      ss << (p ? "," : "") << r.resp_queue_high_water[p];
    }
    ss << "],\"apps\":[";
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      const TelemetryAppSample& a = r.apps[i];
      const double ipc = r.length == 0
                             ? 0.0
                             : static_cast<double>(a.instructions) /
                                   static_cast<double>(r.length);
      ss << (i ? "," : "") << "{\"app\":\""
         << (i < ctx.apps.size() ? json_escape(ctx.apps[i]) : std::to_string(i))
         << "\",\"sms\":" << a.num_sms << ",\"instructions\":" << a.instructions
         << ",\"ipc\":" << fmt_double(ipc)
         << ",\"alpha\":" << fmt_double(a.alpha) << ",\"l2_miss_rate\":";
      if (a.l2_accesses == 0) {
        ss << "null";
      } else {
        ss << fmt_double(1.0 - static_cast<double>(a.l2_hits) /
                                   static_cast<double>(a.l2_accesses));
      }
      const double actual = interval_actual_slowdown(a, r, ctx, i);
      ss << ",\"actual_slowdown\":";
      append_number_or_null(ss, actual);
      ss << ",\"estimates\":{";
      for (std::size_t e = 0; e < a.estimates.size(); ++e) {
        ss << (e ? "," : "") << '"'
           << (e < ctx.estimators.size() ? json_escape(ctx.estimators[e])
                                         : std::to_string(e))
           << "\":";
        if (a.estimates[e].valid) {
          ss << fmt_double(a.estimates[e].slowdown);
        } else {
          ss << "null";
        }
      }
      ss << "},\"error\":{";
      for (std::size_t e = 0; e < a.estimates.size(); ++e) {
        ss << (e ? "," : "") << '"'
           << (e < ctx.estimators.size() ? json_escape(ctx.estimators[e])
                                         : std::to_string(e))
           << "\":";
        const double err = a.estimates[e].valid
                               ? estimation_error(a.estimates[e].slowdown,
                                                  actual)
                               : std::numeric_limits<double>::quiet_NaN();
        append_number_or_null(ss, err);
      }
      ss << "}}";
    }
    ss << "]}\n";
    prev = &r;
  }
  atomic_write_file(path, ss.str(), "telemetry.hub");
}

namespace {

// Trace-track layout (DESIGN.md §15): one process, fixed thread ids.
constexpr int kTidMigration = 2;
constexpr int kTidFaults = 3;
constexpr int kTidMemory = 4;
constexpr int kTidAppBase = 10;  ///< app i lives on tid kTidAppBase + i

void trace_meta(std::ostringstream& ss, int tid, const std::string& name) {
  ss << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json_escape(name)
     << "\"}}";
}

int trace_tid_for(const FlightEvent& e) {
  switch (e.kind) {
    case FrEvent::kMigrationRequested:
    case FrEvent::kMigrationHandover:
    case FrEvent::kMigrationComplete:
      return kTidMigration;
    case FrEvent::kFaultDropResp:
    case FrEvent::kFaultDropReq:
      return kTidFaults;
    case FrEvent::kRespHighWater:
    case FrEvent::kDeferHighWater:
    case FrEvent::kXbarReqStall:
    case FrEvent::kXbarRespStall:
      return kTidMemory;
    case FrEvent::kBlockDispatch:
      return e.app >= 0 ? kTidAppBase + e.app : kTidMemory;
  }
  return kTidMemory;
}

}  // namespace

void write_trace_json(const std::string& path, const TelemetryHub& hub,
                      const TelemetryFlushContext& ctx) {
  // One simulated cycle maps to one microsecond of trace time, so the
  // Perfetto timeline reads directly in cycles.
  std::ostringstream ss;
  ss << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
     << "\"gpusim " << json_escape(ctx.label) << "\"}}";
  trace_meta(ss, kTidMigration, "sm-migration");
  trace_meta(ss, kTidFaults, "fault-injection");
  trace_meta(ss, kTidMemory, "memory-system");
  for (std::size_t i = 0; i < ctx.apps.size(); ++i) {
    trace_meta(ss, kTidAppBase + static_cast<int>(i),
               "app" + std::to_string(i) + " " + ctx.apps[i]);
  }

  // Epoch spans: one complete ("X") span per app per interval, carrying the
  // per-epoch sample as args, plus process-wide counter tracks.
  for (const TelemetryRecord& r : hub.records()) {
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      const TelemetryAppSample& a = r.apps[i];
      const double ipc = r.length == 0
                             ? 0.0
                             : static_cast<double>(a.instructions) /
                                   static_cast<double>(r.length);
      ss << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":"
         << (kTidAppBase + static_cast<int>(i)) << ",\"ts\":" << r.start
         << ",\"dur\":" << r.length << ",\"name\":\"epoch " << r.epoch
         << "\",\"args\":{\"sms\":" << a.num_sms
         << ",\"ipc\":" << fmt_double(ipc);
      for (std::size_t e = 0;
           e < a.estimates.size() && e < ctx.estimators.size(); ++e) {
        if (!a.estimates[e].valid) continue;
        ss << ",\"est_" << json_escape(ctx.estimators[e])
           << "\":" << fmt_double(a.estimates[e].slowdown);
      }
      ss << "}}";
    }
    ss << ",\n{\"ph\":\"C\",\"pid\":1,\"ts\":" << (r.start + r.length)
       << ",\"name\":\"sms\",\"args\":{";
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      ss << (i ? "," : "") << '"'
         << (i < ctx.apps.size() ? json_escape(ctx.apps[i]) : std::to_string(i))
         << "\":" << r.apps[i].num_sms;
    }
    ss << "}}";
  }

  // Flight-recorder events: migration request/complete pairs become drain
  // spans on the migration track; everything else is an instant on its
  // track, named by the FrEvent's to_string.
  Cycle drain_start = 0;
  u64 drain_sms = 0;
  bool drain_open = false;
  for (const FlightEvent& e : hub.trace_events()) {
    if (e.kind == FrEvent::kMigrationRequested) {
      drain_open = true;
      drain_start = e.cycle;
      drain_sms = e.a;
      continue;
    }
    if (e.kind == FrEvent::kMigrationComplete) {
      const Cycle ts = drain_open ? drain_start : e.cycle;
      ss << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << kTidMigration
         << ",\"ts\":" << ts << ",\"dur\":" << (e.cycle - ts)
         << ",\"name\":\"migration drain\",\"args\":{\"sms_changing\":"
         << drain_sms << "}}";
      drain_open = false;
      continue;
    }
    ss << ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":" << trace_tid_for(e)
       << ",\"ts\":" << e.cycle << ",\"s\":\"t\",\"name\":\""
       << to_string(e.kind) << "\",\"args\":{";
    if (e.unit >= 0) ss << "\"unit\":" << e.unit << ",";
    if (e.app >= 0) ss << "\"app\":" << e.app << ",";
    ss << "\"a\":" << e.a << ",\"b\":" << e.b << "}}";
  }
  if (drain_open) {
    ss << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << kTidMigration
       << ",\"ts\":" << drain_start
       << ",\"dur\":" << (ctx.final_cycle - drain_start)
       << ",\"name\":\"migration drain (unfinished)\",\"args\":"
       << "{\"sms_changing\":" << drain_sms << "}}";
  }

  // Loop-profiler buckets merged in as counter tracks at end-of-run.
  if (ctx.profiler != nullptr) {
    ss << ",\n{\"ph\":\"C\",\"pid\":1,\"ts\":" << ctx.final_cycle
       << ",\"name\":\"loop_profiler_ns\",\"args\":{";
    for (int p = 0; p < LoopProfiler::kNumPhases; ++p) {
      ss << (p ? "," : "") << '"' << LoopProfiler::phase_key(p)
         << "\":" << ctx.profiler->ns(static_cast<LoopProfiler::Phase>(p));
    }
    ss << "}}";
  }

  if (ctx.crashed) {
    ss << ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":" << kTidMemory
       << ",\"ts\":" << ctx.crash_cycle
       << ",\"s\":\"g\",\"name\":\"CRASH " << json_escape(ctx.crash_kind)
       << "\",\"args\":{}}";
  }

  ss << "\n]}\n";
  atomic_write_file(path, ss.str(), "telemetry.hub");
}

void flush_telemetry(const TelemetryHub& hub, const TelemetryPaths& resolved,
                     const TelemetryFlushContext& ctx) {
  if (!resolved.series.empty()) {
    write_telemetry_jsonl(resolved.series, hub, ctx);
  }
  if (!resolved.trace.empty()) {
    write_trace_json(resolved.trace, hub, ctx);
  }
}

}  // namespace gpusim
