#include "common/fault_injection.hpp"

#include <cstdlib>
#include <sstream>

#include "common/jsonl.hpp"
#include "common/sim_error.hpp"

namespace gpusim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropResponse: return "drop-resp";
    case FaultKind::kDropRequest: return "drop-req";
    case FaultKind::kStallWindow: return "stall";
    case FaultKind::kBitFlip: return "flip";
    case FaultKind::kMisroute: return "misroute";
    case FaultKind::kNackResponse: return "nack";
  }
  return "unknown";
}

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  SIM_FAIL(SimError(SimErrorKind::kConfig, "common.fault_injection",
                    "malformed fault-schedule spec")
               .detail("spec", spec)
               .detail("problem", why));
}

u64 parse_u64_or(const std::string& spec, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    bad_spec(spec, "expected unsigned integer, got '" + v + "'");
  }
  return static_cast<u64>(n);
}

double parse_double_or(const std::string& spec, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    bad_spec(spec, "expected number, got '" + v + "'");
  }
  return d;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

std::string FaultSchedule::to_string() const {
  std::ostringstream ss;
  for (const FaultEvent& e : events) {
    ss << gpusim::to_string(e.kind) << ':';
    switch (e.kind) {
      case FaultKind::kDropResponse:
        if (e.prob > 0.0) {
          if (e.nth != 0) ss << "nth=" << e.nth << ',';
          ss << "prob=" << fmt_double(e.prob);
        } else {
          ss << "nth=" << e.nth;
        }
        break;
      case FaultKind::kDropRequest:
        ss << "nth=" << e.nth;
        break;
      case FaultKind::kStallWindow:
        ss << "part=" << e.partition << ",from=" << e.from;
        if (e.until != 0) ss << ",until=" << e.until;
        break;
      case FaultKind::kBitFlip:
        ss << "nth=" << e.nth << ",bit=" << e.bit;
        break;
      case FaultKind::kMisroute:
        ss << "from=" << e.from;
        break;
      case FaultKind::kNackResponse:
        ss << "nth=" << e.nth << ",delay=" << e.delay;
        break;
    }
    ss << ';';
  }
  ss << "seed=" << seed;
  return ss.str();
}

FaultSchedule FaultSchedule::parse(const std::string& spec) {
  FaultSchedule sched;
  if (spec.empty()) return sched;
  for (const std::string& token : split(spec, ';')) {
    if (token.empty()) continue;
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
      // Bare `seed=N` token.
      const auto eq = token.find('=');
      if (eq == std::string::npos || token.substr(0, eq) != "seed") {
        bad_spec(spec, "expected 'kind:key=value,...' or 'seed=N', got '" +
                           token + "'");
      }
      sched.seed = parse_u64_or(spec, token.substr(eq + 1));
      continue;
    }
    const std::string kind_name = token.substr(0, colon);
    FaultEvent e;
    if (kind_name == "drop-resp") {
      e.kind = FaultKind::kDropResponse;
    } else if (kind_name == "drop-req") {
      e.kind = FaultKind::kDropRequest;
    } else if (kind_name == "stall") {
      e.kind = FaultKind::kStallWindow;
    } else if (kind_name == "flip") {
      e.kind = FaultKind::kBitFlip;
    } else if (kind_name == "misroute") {
      e.kind = FaultKind::kMisroute;
    } else if (kind_name == "nack") {
      e.kind = FaultKind::kNackResponse;
    } else {
      bad_spec(spec, "unknown fault kind '" + kind_name + "'");
    }
    for (const std::string& kv : split(token.substr(colon + 1), ',')) {
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        bad_spec(spec, "expected key=value, got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "nth") {
        e.nth = parse_u64_or(spec, value);
      } else if (key == "prob") {
        e.prob = parse_double_or(spec, value);
        if (e.prob < 0.0 || e.prob > 1.0) {
          bad_spec(spec, "prob must be in [0, 1]");
        }
      } else if (key == "part") {
        e.partition = static_cast<PartitionId>(parse_u64_or(spec, value));
      } else if (key == "from") {
        e.from = parse_u64_or(spec, value);
      } else if (key == "until") {
        e.until = parse_u64_or(spec, value);
      } else if (key == "bit") {
        e.bit = static_cast<int>(parse_u64_or(spec, value)) & 63;
      } else if (key == "delay") {
        e.delay = std::max<Cycle>(1, parse_u64_or(spec, value));
      } else {
        bad_spec(spec, "unknown key '" + key + "' for kind '" + kind_name +
                           "'");
      }
    }
    if (e.kind == FaultKind::kStallWindow && e.until != 0 &&
        e.until <= e.from) {
      bad_spec(spec, "stall window must have until > from");
    }
    sched.events.push_back(e);
  }
  return sched;
}

namespace {

// One entry per GpuConfig::validate() rule.  Growing validate() without a
// matching corruption here leaves the new rule untested — the SimGuard
// config test iterates this whole table and asserts every mutation is
// rejected.
struct ConfigCorruption {
  const char* name;
  void (*apply)(GpuConfig&);
};

const ConfigCorruption kCorruptions[] = {
    {"num_sms=0", [](GpuConfig& c) { c.num_sms = 0; }},
    {"max_warps_per_sm=0", [](GpuConfig& c) { c.max_warps_per_sm = 0; }},
    {"num_partitions=0", [](GpuConfig& c) { c.num_partitions = 0; }},
    {"banks_per_mc=0", [](GpuConfig& c) { c.banks_per_mc = 0; }},
    // Bank bitmasks are 32 bits wide.
    {"banks_per_mc=64", [](GpuConfig& c) { c.banks_per_mc = 64; }},
    // Not a power of two.
    {"line_bytes=100", [](GpuConfig& c) { c.line_bytes = 100; }},
    // 10000 / (128 * 4) does not divide into whole sets.
    {"l1_size_bytes=10000", [](GpuConfig& c) { c.l1_size_bytes = 10000; }},
    // 100000 / (128 * 8) does not divide into whole sets.
    {"l2_partition_bytes=100000",
     [](GpuConfig& c) { c.l2_partition_bytes = 100000; }},
    // Not a multiple of line_bytes.
    {"row_bytes=2000", [](GpuConfig& c) { c.row_bytes = 2000; }},
    {"atd_sampled_sets=0", [](GpuConfig& c) { c.atd_sampled_sets = 0; }},
    // > l2_num_sets().
    {"atd_sampled_sets=1<<20",
     [](GpuConfig& c) { c.atd_sampled_sets = 1 << 20; }},
    {"estimation_interval=0", [](GpuConfig& c) { c.estimation_interval = 0; }},
    {"requestmax_factor=-0.5",
     [](GpuConfig& c) { c.requestmax_factor = -0.5; }},
    {"requestmax_factor=1.5", [](GpuConfig& c) { c.requestmax_factor = 1.5; }},
    {"dram_clock_ratio=0", [](GpuConfig& c) { c.dram_clock_ratio = 0.0; }},
    {"dram_queue_capacity=0", [](GpuConfig& c) { c.dram_queue_capacity = 0; }},
    {"noc_queue_depth=0", [](GpuConfig& c) { c.noc_queue_depth = 0; }},
    {"partition_resp_queue_depth=-1",
     [](GpuConfig& c) { c.partition_resp_queue_depth = -1; }},
    {"mshr_retry_timeout=0", [](GpuConfig& c) { c.mshr_retry_timeout = 0; }},
    {"mshr_retry_max=0", [](GpuConfig& c) { c.mshr_retry_max = 0; }},
    {"flight_recorder_events=-1",
     [](GpuConfig& c) { c.flight_recorder_events = -1; }},
    {"flight_recorder_events=1<<21",
     [](GpuConfig& c) { c.flight_recorder_events = 1 << 21; }},
    // Shorter than one estimation epoch.
    {"governor_drain_budget<estimation_interval",
     [](GpuConfig& c) { c.governor_drain_budget = c.estimation_interval - 1; }},
    {"governor_max_delta=0", [](GpuConfig& c) { c.governor_max_delta = 0; }},
    {"governor_starvation_window=0",
     [](GpuConfig& c) { c.governor_starvation_window = 0; }},
    // Flap detection needs at least A->B->A.
    {"governor_thrash_window=1",
     [](GpuConfig& c) { c.governor_thrash_window = 1; }},
    {"governor_breaker_trips=0",
     [](GpuConfig& c) { c.governor_breaker_trips = 0; }},
    {"governor_jump_bound=1.0",
     [](GpuConfig& c) { c.governor_jump_bound = 1.0; }},
};

}  // namespace

std::size_t corruption_rule_count() {
  return sizeof(kCorruptions) / sizeof(kCorruptions[0]);
}

const char* corruption_rule_name(std::size_t index) {
  return kCorruptions[index % corruption_rule_count()].name;
}

void corrupt_config(GpuConfig& cfg, u64 seed) {
  kCorruptions[seed % corruption_rule_count()].apply(cfg);
}

}  // namespace gpusim
