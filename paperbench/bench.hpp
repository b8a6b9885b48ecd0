// Paper-artifact benchmark: shared declarations (see README.md).
//
// A workload is a list of units; a unit is one ExperimentRunner::run call
// with exact alone replays (the paper's Section V method).  The untraced
// run times each unit through ExperimentRunner::run itself; the traced run
// (traced.cpp) feeds the same units through the calls run() makes, timing
// each from here.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace paperbench {

using gpusim::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One ExperimentRunner::run call.
struct Unit {
  std::string id;  ///< "u0", "u1", ... in run order
  gpusim::Workload workload;
  gpusim::ModelSet models;
  gpusim::PolicyKind policy = gpusim::PolicyKind::kEven;
};

/// A workload's run configuration and units, all derived from its seed.
struct Plan {
  std::string name;  ///< workload name, as in BENCHMARK.json
  gpusim::RunConfig rc;
  std::vector<Unit> units;
};

/// Builds workload `name` for `seed`; throws std::invalid_argument for an
/// unknown name.
Plan make_plan(const std::string& name, u64 seed);

/// Output checks every unit must pass besides raising no SimError: no app
/// starved, every slowdown and estimate is finite, and no alone replay
/// stopped at RunConfig::max_alone_cycles before reaching its instruction
/// target.  Returns an empty string when the result passes.
std::string check_result(const gpusim::CoRunResult& result,
                         const gpusim::RunConfig& rc);

/// One finished unit of the untraced run.
struct UnitOutcome {
  std::string error;  ///< empty when the unit ran and passed check_result
  gpusim::CoRunResult result;
  double host_s = 0.0;
  double ref_s = 0.0;  ///< host_s scaled to the reference host's speed
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of one traced pass over a plan's units.
struct TracedPass {
  double host_s = 0.0;  ///< sum of the unit spans
  int failed_units = 0;
  /// Cross-check failures against the untraced run, one line each.
  std::vector<std::string> mismatches;
  std::vector<Metric> metrics;  ///< per-layer metrics
};

/// Runs every unit of `plan` through assemble_corun, interval-sized
/// Simulation::run chunks with a LoopProfiler attached, the conservation
/// audit and ExperimentRunner::measure_alone_cycles, recording spans.
/// Compares each app with `untraced` (same units, same order) and writes
/// the spans as Chrome trace-event JSON to `trace_path`.
TracedPass run_traced(const Plan& plan,
                      const std::vector<UnitOutcome>& untraced,
                      const std::string& trace_path);

}  // namespace paperbench
