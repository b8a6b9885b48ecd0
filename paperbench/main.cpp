// Paper-artifact benchmark (see README.md).
//
//   paperbench --workload NAME --seed N --seconds S --trace 0|1
//              [--expect-digest HEX] [--trace-out PATH]
//   paperbench --workload NAME --seed N --setup-only
//
// --trace 0 repeats passes over the workload's units through
// ExperimentRunner::run for about S seconds (at least two passes) and
// reports the end-to-end metrics.  --trace 1 makes one such pass, then one
// pass through the traced path (traced.cpp), and adds the per-layer
// metrics.  --setup-only stops after set-up and prints only setup_s.
// Every output line but the last is for people; the last is one JSON
// object with "correct", "attempted", "failed" and "metrics".
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "common/simstate.hpp"
#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"

namespace paperbench {
namespace {

constexpr const char* kUsage =
    "usage: paperbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                  [--expect-digest HEX] [--trace-out PATH]\n"
    "       paperbench --workload NAME --seed N --setup-only\n";

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string expect_digest;
  std::string trace_out = "paperbench-trace.json";
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos) {
        throw std::invalid_argument("--seed takes a non-negative integer");
      }
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--expect-digest") {
      a.expect_digest = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!a.setup_only && (!(a.seconds > 0.0) || a.trace < 0)) {
    throw std::invalid_argument("--seconds (> 0) and --trace are required");
  }
  return a;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Peak resident set size of this program.  Read from VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
/// process started from a larger parent (the Python driver) reports the
/// parent's footprint instead of its own.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Length of the host-speed probe loop, and the probe's time on the
/// reference host (4-vCPU Xeon VM), which sets the scale of the scaled
/// timings (setup_s and the *_ref_s metrics): they read as host seconds on
/// that host.
constexpr int kProbeIters = 1 << 19;
constexpr double kProbeReferenceS = 0.0047;

volatile u64 probe_sink = 0;

/// Host-speed probe: a fixed xorshift-and-lookup loop over a 256 KiB table,
/// independent of the simulator, timed as the median of five runs.  A
/// shared host changes speed by up to 1.5x in phases of seconds to minutes,
/// for every unit at once; the probe slows with it, so timing it next to
/// each unit factors the host's momentary speed out of the scaled timings
/// while any change to the simulator's own speed still shows in full.
double probe_s() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  std::vector<double> times;
  for (int run = 0; run < 5; ++run) {
    const Clock::time_point start = Clock::now();
    u64 h = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kProbeIters; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      h += table[h & (table.size() - 1)];
    }
    probe_sink = h;
    times.push_back(seconds_since(start));
  }
  return median(times);
}

struct Pass {
  std::vector<UnitOutcome> units;
  double host_s = 0.0;  ///< sum of the units' host time
  double ref_s = 0.0;   ///< sum of the units' time at reference speed
  std::vector<double> probes_s;  ///< before the first unit and after each
  u64 digest = 0;  ///< over every unit's SweepRunner::to_json, in order
};

Pass run_pass(const Plan& plan, gpusim::ExperimentRunner& runner,
              bool print_units) {
  Pass pass;
  gpusim::Hasher digest;
  pass.probes_s.push_back(probe_s());
  for (const Unit& unit : plan.units) {
    UnitOutcome out;
    const Clock::time_point t = Clock::now();
    try {
      out.result = runner.run(unit.workload, unit.models, unit.policy);
      out.host_s = seconds_since(t);
      out.error = check_result(out.result, plan.rc);
    } catch (const std::exception& e) {  // SimError included
      out.host_s = seconds_since(t);
      out.error = e.what();
    }
    // The host's speed during the unit: the mean of the probes around it.
    pass.probes_s.push_back(probe_s());
    const double probe =
        0.5 * (pass.probes_s.rbegin()[0] + pass.probes_s.rbegin()[1]);
    out.ref_s = out.host_s * kProbeReferenceS / probe;
    pass.host_s += out.host_s;
    pass.ref_s += out.ref_s;
    digest.put_string(out.error.empty()
                          ? gpusim::SweepRunner::to_json(out.result)
                          : "failed: " + out.error);
    if (print_units || !out.error.empty()) {
      std::printf("unit %s %s %s %.3f s, %.3f s at reference speed%s%s\n",
                  unit.id.c_str(), unit.workload.label().c_str(),
                  gpusim::to_string(unit.policy), out.host_s, out.ref_s,
                  out.error.empty() ? "" : " FAILED: ", out.error.c_str());
    }
    pass.units.push_back(std::move(out));
  }
  pass.digest = digest.digest();
  return pass;
}

/// The paper's results over one pass, from the units that passed their
/// checks.  dase_err_pct is defined for every workload; the MISE/ASM
/// margin only where every unit ran both baselines (fig5-estimate), the
/// DASE-Fair gains only where a unit has an even-split twin (fig9-fair).
std::vector<Metric> artifact_metrics(const Plan& plan,
                                     const std::vector<UnitOutcome>& units) {
  auto errors_of = [&](const char* model) {
    std::vector<double> errors;
    for (const UnitOutcome& u : units) {
      if (!u.error.empty()) continue;
      for (const gpusim::AppResult& app : u.result.apps) {
        if (app.estimates.count(model) != 0) {
          errors.push_back(app.estimation_error_of(model));
        }
      }
    }
    return errors;
  };
  const std::vector<double> dase = errors_of("DASE");
  const std::vector<double> mise = errors_of("MISE");
  const std::vector<double> asm_errors = errors_of("ASM");
  std::vector<Metric> out{{"dase_err_pct", 100.0 * gpusim::mean(dase), "%"}};
  if (!mise.empty() && !asm_errors.empty()) {
    const double best = std::min(gpusim::mean(mise), gpusim::mean(asm_errors));
    out.push_back({"dase_margin_pct", 100.0 * (best - gpusim::mean(dase)),
                   "points"});
  }

  std::vector<double> unf_even, unf_fair, hs_even, hs_fair;
  for (std::size_t f = 0; f < units.size(); ++f) {
    if (plan.units[f].policy != gpusim::PolicyKind::kDaseFair ||
        !units[f].error.empty()) {
      continue;
    }
    for (std::size_t e = 0; e < units.size(); ++e) {
      if (plan.units[e].policy == gpusim::PolicyKind::kEven &&
          units[e].error.empty() &&
          units[e].result.label == units[f].result.label) {
        unf_even.push_back(units[e].result.unfairness);
        unf_fair.push_back(units[f].result.unfairness);
        hs_even.push_back(units[e].result.harmonic_speedup);
        hs_fair.push_back(units[f].result.harmonic_speedup);
        break;
      }
    }
  }
  if (!unf_fair.empty()) {
    // Same aggregation as bench/fig9_dase_fair: gain of the means.
    const double ue = gpusim::mean(unf_even);
    const double he = gpusim::mean(hs_even);
    out.push_back({"unfairness_gain_pct",
                   100.0 * (ue - gpusim::mean(unf_fair)) / ue, "%"});
    out.push_back({"hspeedup_gain_pct",
                   100.0 * (gpusim::mean(hs_fair) - he) / he, "%"});
  }
  return out;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args, Clock::time_point process_start) {
  // Set-up: application registry, the seed's workload, config validation
  // and runner construction.
  const Plan plan = make_plan(args.workload, args.seed);
  plan.rc.gpu.validate();
  auto runner = std::make_unique<gpusim::ExperimentRunner>(plan.rc);
  const double setup_raw_s = seconds_since(process_start);
  // Scaled to the reference host's speed like the unit times, with a probe
  // right after set-up.
  const double setup_s = setup_raw_s * kProbeReferenceS / probe_s();
  if (args.setup_only) {
    std::printf("setup_s %.9f\n", setup_s);
    return 0;
  }

  std::printf("paperbench %s seed %" PRIu64 ": %zu units per pass, "
              "%" PRIu64 "-cycle co-runs, exact alone replay\n",
              args.workload.c_str(), args.seed, plan.units.size(),
              static_cast<u64>(plan.rc.co_run_cycles));
  std::vector<Pass> passes;
  double longest_pass_s = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    // Every pass starts from a fresh runner, as a new process would, so
    // nothing a runner caches carries from one pass into the next.
    if (!runner) runner = std::make_unique<gpusim::ExperimentRunner>(plan.rc);
    passes.push_back(run_pass(plan, *runner, passes.empty()));
    runner.reset();
    longest_pass_s = std::max(longest_pass_s, passes.back().host_s);
    std::printf("pass %zu %.3f s digest %s\n", passes.size(),
                passes.back().host_s, hex64(passes.back().digest).c_str());
    // At least two passes, so every median has more than one sample; then
    // more while another pass as long as the longest so far still ends
    // within --seconds.
  } while (args.trace == 0 &&
           (passes.size() < 2 ||
            seconds_since(start) + longest_pass_s <= args.seconds));

  int attempted = 0;
  int failed = 0;
  std::vector<double> pass_s, pass_ref_s, probes_s;
  std::vector<std::vector<double>> unit_s(plan.units.size());
  std::vector<std::vector<double>> unit_ref_s(plan.units.size());
  for (const Pass& pass : passes) {
    pass_s.push_back(pass.host_s);
    pass_ref_s.push_back(pass.ref_s);
    probes_s.insert(probes_s.end(), pass.probes_s.begin(),
                    pass.probes_s.end());
    for (std::size_t k = 0; k < pass.units.size(); ++k) {
      ++attempted;
      failed += pass.units[k].error.empty() ? 0 : 1;
      unit_s[k].push_back(pass.units[k].host_s);
      unit_ref_s[k].push_back(pass.units[k].ref_s);
    }
  }
  // The median unit, each unit taken at its median over the passes.
  auto median_unit = [](const std::vector<std::vector<double>>& per_unit) {
    std::vector<double> medians;
    for (const std::vector<double>& times : per_unit) {
      medians.push_back(median(times));
    }
    return median(medians);
  };
  bool correct = failed == 0;
  const std::string digest = hex64(passes.front().digest);
  for (const Pass& pass : passes) {
    if (pass.digest != passes.front().digest) {
      std::printf("CHECK FAILED: passes disagree on the results digest\n");
      correct = false;
      break;
    }
  }
  std::printf("digest %s seed %" PRIu64 " %s", args.workload.c_str(),
              args.seed, digest.c_str());
  if (args.expect_digest.empty()) {
    std::printf(" (no reference for this seed)\n");
  } else if (args.expect_digest == digest) {
    std::printf(" (matches the reference)\n");
  } else {
    std::printf("\nCHECK FAILED: reference digest is %s\n",
                args.expect_digest.c_str());
    correct = false;
  }
  std::printf("units %zu per pass, passes %zu, failed_units %d\n",
              plan.units.size(), passes.size(), failed);

  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"wall_ref_s", median(pass_ref_s), "s"},
      {"unit_p50_ref_s", median_unit(unit_ref_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"setup_raw_s", setup_raw_s, "s"},
      {"wall_s", median(pass_s), "s"},
      {"unit_p50_s", median_unit(unit_s), "s"},
      {"host_speed", kProbeReferenceS / median(probes_s), "x"},
  };
  for (Metric& m : artifact_metrics(plan, passes.front().units)) {
    metrics.push_back(std::move(m));
  }

  if (args.trace == 1) {
    const TracedPass traced =
        run_traced(plan, passes.front().units, args.trace_out);
    attempted += static_cast<int>(plan.units.size());
    failed += traced.failed_units;
    for (const std::string& line : traced.mismatches) {
      std::printf("CHECK FAILED: traced run differs: %s\n", line.c_str());
    }
    if (traced.failed_units != 0 || !traced.mismatches.empty()) {
      correct = false;
    }
    double untraced_s = 0.0;
    for (const UnitOutcome& u : passes.front().units) untraced_s += u.host_s;
    metrics.insert(metrics.end(), traced.metrics.begin(),
                   traced.metrics.end());
    metrics.push_back({"trace.overhead_ratio",
                       traced.host_s > 0.0 ? untraced_s / traced.host_s : 0.0,
                       "ratio"});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  const paperbench::Clock::time_point process_start =
      paperbench::Clock::now();
  paperbench::Args args;
  try {
    args = paperbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n%s", e.what(), paperbench::kUsage);
    return 2;
  }
  try {
    return paperbench::run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n", e.what());
    return 1;
  }
}
