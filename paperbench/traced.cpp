// Traced run of the paper-artifact benchmark.
//
// Feeds each unit through the calls ExperimentRunner::run makes on this
// path — assemble_corun, Simulation::run, the conservation audit and
// ExperimentRunner::measure_alone_cycles — and times each call from here.
// The co-run runs in interval-sized Simulation::run chunks with the
// existing LoopProfiler attached through RunConfig::profiler.  Spans stay
// in memory and are written once, at the end, as Chrome trace-event JSON
// (the format of gpusim_cli --trace-out), which Perfetto loads.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "bench.hpp"
#include "common/loop_profiler.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"

namespace paperbench {
namespace {

using gpusim::LoopProfiler;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Span {
  std::string name;
  std::string unit;        ///< id of the unit the span belongs to
  std::size_t parent = 0;  ///< id of the enclosing span; 0 for a unit span
  Clock::time_point start;
  Clock::time_point end;
  bool open = true;
  std::string args;  ///< extra JSON members, each with a leading ','

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Spans in begin order; a span's id is its index + 1.
class SpanLog {
 public:
  std::size_t begin(std::string name, const std::string& unit,
                    std::size_t parent, std::string args = {}) {
    spans_.push_back(Span{std::move(name), unit, parent, Clock::now(), {},
                          true, std::move(args)});
    return spans_.size();
  }

  /// Closes span `id`, appends `args`, and returns its duration in seconds.
  double end(std::size_t id, const std::string& args = {}) {
    Span& s = spans_[id - 1];
    s.end = Clock::now();
    s.open = false;
    s.args += args;
    return s.seconds();
  }

  /// Closes every span opened after `id` that is still open (a unit threw).
  void end_open_after(std::size_t id) {
    for (std::size_t i = id; i < spans_.size(); ++i) {
      if (spans_[i].open) end(i + 1);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

void write_trace(const std::string& path, const std::string& title,
                 const std::vector<Span>& spans) {
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  const Clock::time_point origin =
      spans.empty() ? Clock::now() : spans.front().start;
  std::ostringstream ss;
  ss << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
     << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
     << json_string(title) << "}}";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                  us(s.start - origin), us(s.end - s.start));
    ss << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
       << ",\"name\":" << json_string(s.name) << ",\"args\":{\"span\":"
       << i + 1 << ",\"parent\":" << s.parent
       << ",\"unit\":" << json_string(s.unit) << s.args << "}}";
  }
  ss << "\n]}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << ss.str();
  out.close();
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

/// Prints, per span name, total time and self time (span time minus the
/// time of its child spans).
void print_self_times(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size() + 1, 0.0);
  for (const Span& s : spans) child_s[s.parent] += s.seconds();
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    u64 count = 0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Totals& t = by_name[spans[i].name];
    t.total_s += spans[i].seconds();
    t.self_s += spans[i].seconds() - child_s[i + 1];
    ++t.count;
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-22s count %6llu total %9.3f s self %9.3f s\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_s, t.self_s);
  }
}

using PhaseNs = std::array<u64, LoopProfiler::kNumPhases>;

PhaseNs phase_ns(const LoopProfiler& prof) {
  PhaseNs ns{};
  for (int p = 0; p < LoopProfiler::kNumPhases; ++p) {
    ns[p] = prof.ns(static_cast<LoopProfiler::Phase>(p));
  }
  return ns;
}

/// Profiler phase totals between two readings, as span args.
std::string phase_args(const PhaseNs& before, const PhaseNs& after) {
  std::string args;
  for (int p = 0; p < LoopProfiler::kNumPhases; ++p) {
    args += ",\"" + std::string(LoopProfiler::phase_key(p)) +
            "_ns\":" + std::to_string(after[p] - before[p]);
  }
  return args;
}

/// Per-layer metric name of a profiler phase.  A phase outside the sm, noc
/// and mem layers reports as gpu.<phase>_s, so adding or deleting a phase
/// never breaks the benchmark.
std::string phase_metric(int p) {
  static const std::map<std::string, std::string> layer_names = {
      {"sm_advance", "sm.advance_s"},
      {"resp_delivery", "noc.resp_delivery_s"},
      {"xbar_req", "noc.xbar_req_s"},
      {"xbar_resp", "noc.xbar_resp_s"},
      {"partition", "mem.partition_s"},
      {"interval_bookkeeping", "gpu.interval_s"},
  };
  const std::string key = LoopProfiler::phase_key(p);
  const auto it = layer_names.find(key);
  return it != layer_names.end() ? it->second : "gpu." + key + "_s";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Simulated counters summed over every co-run of the pass.
struct SimCounters {
  u64 cycles = 0;
  u64 sm_cycles = 0;         ///< Σ num_sms × cycles
  u64 partition_cycles = 0;  ///< Σ num_partitions × cycles
  u64 dram_requests = 0;
  u64 row_hits = 0;
  u64 row_misses = 0;
  u64 bus_data_cycles = 0;
  u64 wasted_cycles = 0;
  u64 l2_accesses = 0;
  u64 l2_hits = 0;
  u64 issue_cycles = 0;
  u64 mem_stall_cycles = 0;

  void add(const gpusim::Gpu& gpu) {
    cycles += gpu.now();
    sm_cycles += gpu.now() * static_cast<u64>(gpu.num_sms());
    partition_cycles += gpu.now() * static_cast<u64>(gpu.num_partitions());
    for (int p = 0; p < gpu.num_partitions(); ++p) {
      const gpusim::McCounters& mc = gpu.partition(p).mc().counters();
      dram_requests += mc.requests_served.grand_total();
      row_hits += mc.row_hits.grand_total();
      row_misses += mc.row_misses.grand_total();
      bus_data_cycles += mc.bus_data_cycles.grand_total();
      wasted_cycles += mc.wasted_cycles.total();
      const gpusim::PartitionCounters& pc = gpu.partition(p).counters();
      l2_accesses += pc.l2_accesses.grand_total();
      l2_hits += pc.l2_hits.grand_total();
    }
    for (int s = 0; s < gpu.num_sms(); ++s) {
      const gpusim::SmCounters& sc = gpu.sm(s).counters();
      issue_cycles += sc.issue_cycles.total();
      mem_stall_cycles += sc.mem_stall_cycles.total();
    }
  }
};

}  // namespace

TracedPass run_traced(const Plan& plan,
                      const std::vector<UnitOutcome>& untraced,
                      const std::string& trace_path) {
  LoopProfiler profiler;
  gpusim::RunConfig rc = plan.rc;
  rc.profiler = &profiler;
  gpusim::ExperimentRunner runner(rc);
  const gpusim::Cycle interval = rc.gpu.estimation_interval;
  if (rc.co_run_cycles % interval != 0) {
    // Counters are read after the final chunk; only an interval boundary
    // (end_interval) settles the engine's lazily accrued counters there.
    throw std::logic_error("co-run length must be a whole number of "
                           "estimation intervals");
  }

  SpanLog log;
  SimCounters counters;
  TracedPass out;
  double assemble_s = 0.0, corun_s = 0.0, drain_s = 0.0, alone_s = 0.0;
  u64 alone_calls = 0, alone_cycles = 0;

  for (std::size_t k = 0; k < plan.units.size(); ++k) {
    const Unit& u = plan.units[k];
    const std::size_t unit_span = log.begin(
        "unit", u.id, 0,
        ",\"label\":" + json_string(u.workload.label()) +
            ",\"policy\":" + json_string(gpusim::to_string(u.policy)));
    std::string error;
    try {
      std::size_t span = log.begin("harness.assemble", u.id, unit_span);
      gpusim::CoRunAssembly a =
          gpusim::assemble_corun(rc, u.workload, u.models, u.policy);
      assemble_s += log.end(span);
      gpusim::Simulation& sim = *a.sim;
      gpusim::Gpu& gpu = sim.gpu();

      const std::size_t corun = log.begin("gpu.corun", u.id, unit_span);
      const PhaseNs corun_start = phase_ns(profiler);
      while (gpu.now() < rc.co_run_cycles) {
        const gpusim::Cycle chunk =
            std::min(interval, rc.co_run_cycles - gpu.now());
        const bool drain = gpu.migration_in_progress();
        const PhaseNs before = phase_ns(profiler);
        span = log.begin(drain ? "gpu.drain" : "gpu.chunk", u.id, corun,
                         ",\"start_cycle\":" + std::to_string(gpu.now()));
        sim.run(chunk);
        const double s = log.end(span, phase_args(before, phase_ns(profiler)));
        if (drain) drain_s += s;
      }
      corun_s += log.end(corun,
                         ",\"cycles\":" + std::to_string(gpu.now()) +
                             phase_args(corun_start, phase_ns(profiler)));

      span = log.begin("harness.audit", u.id, unit_span);
      if (rc.verify_conservation && !rc.faults.any()) {
        gpu.verify_conservation();
      }
      log.end(span);
      counters.add(gpu);

      const UnitOutcome& ref = untraced[k];
      const std::string where = u.id + " " + u.workload.label();
      if (ref.error.empty() && ref.result.cycles != gpu.now()) {
        out.mismatches.push_back(where + ": co-run cycles");
      }
      for (int i = 0; i < gpu.num_apps(); ++i) {
        const std::string& abbr = u.workload.apps[i].abbr;
        const u64 instructions = gpu.instructions().total(i);
        if (instructions == 0) {
          throw std::runtime_error(abbr + " starved in the co-run");
        }
        span = log.begin("harness.alone_replay", u.id, unit_span,
                         ",\"app\":" + json_string(abbr) +
                             ",\"slot\":" + std::to_string(i) +
                             ",\"target\":" + std::to_string(instructions));
        const gpusim::Cycle cycles = runner.measure_alone_cycles(
            u.workload.apps[i], gpusim::harness_app_seed(rc.base_seed, i),
            instructions);
        alone_s += log.end(span, ",\"cycles\":" + std::to_string(cycles));
        ++alone_calls;
        alone_cycles += cycles;
        if (cycles >= rc.max_alone_cycles) {
          throw std::runtime_error(
              abbr + ": alone replay stopped at max_alone_cycles");
        }

        // The same per-app results ExperimentRunner::run reports.
        std::map<std::string, double> estimates;
        if (u.models.dase && a.dase) {
          estimates["DASE"] = a.dase->mean_slowdown(i);
        }
        if (a.mise) estimates["MISE"] = a.mise->mean_slowdown(i);
        if (a.asm_model) estimates["ASM"] = a.asm_model->mean_slowdown(i);
        const double ipc_alone = static_cast<double>(instructions) / cycles;
        if (!ref.error.empty()) continue;
        const gpusim::AppResult& r = ref.result.apps[i];
        const std::string app = where + " " + abbr;
        if (r.instructions != instructions) {
          out.mismatches.push_back(app + ": co-run instructions");
        }
        if (r.ipc_alone != ipc_alone) {
          out.mismatches.push_back(app + ": alone cycles");
        }
        if (r.estimates != estimates) {
          out.mismatches.push_back(app + ": estimates");
        }
      }
    } catch (const std::exception& e) {  // SimError included
      error = e.what();
      log.end_open_after(unit_span);
    }
    out.host_s += log.end(unit_span, error.empty()
                                         ? std::string()
                                         : ",\"error\":" + json_string(error));
    if (!error.empty()) {
      ++out.failed_units;
      std::printf("traced unit %s FAILED: %s\n", u.id.c_str(), error.c_str());
    }
  }

  print_self_times(log.spans());
  write_trace(trace_path,
              "paperbench " + plan.name + " seed " +
                  std::to_string(plan.rc.base_seed),
              log.spans());
  std::printf("trace written to %s\n", trace_path.c_str());

  const double profiled_s = static_cast<double>(profiler.total_ns()) * 1e-9;
  const double sm_ns =
      static_cast<double>(profiler.ns(LoopProfiler::kSmAdvance));
  const double sm_visits =
      static_cast<double>(profiler.visits(LoopProfiler::kSmAdvance));
  const double partition_ns =
      static_cast<double>(profiler.ns(LoopProfiler::kPartition));
  const double cycles = static_cast<double>(counters.cycles);
  out.metrics = {
      {"harness.alone_s", alone_s, "s"},
      {"harness.alone_calls", static_cast<double>(alone_calls), "count"},
      {"harness.alone_mcycles", static_cast<double>(alone_cycles) * 1e-6,
       "Mcycle"},
      {"harness.alone_share", ratio(alone_s, out.host_s), "ratio"},
      {"harness.assemble_s", assemble_s, "s"},
      {"gpu.corun_s", corun_s, "s"},
      {"gpu.corun_mcycles_per_s", ratio(cycles * 1e-6, corun_s), "Mcycle/s"},
      {"gpu.unprofiled_s", corun_s - profiled_s, "s"},
      {"gpu.drain_s", drain_s, "s"},
  };
  for (int p = 0; p < LoopProfiler::kNumPhases; ++p) {
    out.metrics.push_back(
        {phase_metric(p),
         static_cast<double>(profiler.ns(static_cast<LoopProfiler::Phase>(p))) *
             1e-9,
         "s"});
  }
  const double dram = static_cast<double>(counters.dram_requests);
  out.metrics.insert(
      out.metrics.end(),
      {
          {"sm.visits_per_cycle", ratio(sm_visits, cycles), "visits/cycle"},
          {"sm.ns_per_visit", ratio(sm_ns, sm_visits), "ns"},
          {"mem.ns_per_dram_request", ratio(partition_ns, dram), "ns"},
          {"mem.dram_requests", dram, "count"},
          {"mem.row_hit_rate",
           ratio(static_cast<double>(counters.row_hits),
                 static_cast<double>(counters.row_hits + counters.row_misses)),
           "ratio"},
          {"mem.bus_util",
           ratio(static_cast<double>(counters.bus_data_cycles),
                 static_cast<double>(counters.partition_cycles)),
           "ratio"},
          {"mem.wasted_share",
           ratio(static_cast<double>(counters.wasted_cycles),
                 static_cast<double>(counters.partition_cycles)),
           "ratio"},
          {"cache.l2_hit_rate",
           ratio(static_cast<double>(counters.l2_hits),
                 static_cast<double>(counters.l2_accesses)),
           "ratio"},
          {"sm.issue_frac",
           ratio(static_cast<double>(counters.issue_cycles),
                 static_cast<double>(counters.sm_cycles)),
           "ratio"},
          {"sm.mem_stall_frac",
           ratio(static_cast<double>(counters.mem_stall_cycles),
                 static_cast<double>(counters.sm_cycles)),
           "ratio"},
      });
  return out;
}

}  // namespace paperbench
