#include "common/fault_injection.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/jsonl.hpp"
#include "common/sim_error.hpp"

namespace gpusim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropResponse: return "drop-resp";
    case FaultKind::kDropRequest: return "drop-req";
    case FaultKind::kStallWindow: return "stall";
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
    // The keys each kind reads; any other key would be silently ignored.
    std::vector<std::string> keys;
    if (kind_name == "drop-resp") {
      e.kind = FaultKind::kDropResponse;
      keys = {"nth", "prob"};
    } else if (kind_name == "drop-req") {
      e.kind = FaultKind::kDropRequest;
      keys = {"nth"};
    } else if (kind_name == "stall") {
      e.kind = FaultKind::kStallWindow;
      keys = {"part", "from", "until"};
    } else {
      bad_spec(spec, "unknown fault kind '" + kind_name + "'");
    }
    bool has_part = false;
    for (const std::string& kv : split(token.substr(colon + 1), ',')) {
      if (kv.empty()) continue;
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        bad_spec(spec, "expected key=value, got '" + kv + "'");
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        bad_spec(spec, "unknown key '" + key + "' for kind '" + kind_name +
                           "'");
      }
      if (key == "nth") {
        e.nth = parse_u64_or(spec, value);
      } else if (key == "prob") {
        e.prob = parse_double_or(spec, value);
        if (e.prob < 0.0 || e.prob > 1.0) {
          bad_spec(spec, "prob must be in [0, 1]");
        }
      } else if (key == "part") {
        const u64 part = parse_u64_or(spec, value);
        if (part > static_cast<u64>(std::numeric_limits<PartitionId>::max())) {
          bad_spec(spec, "part out of range");
        }
        e.partition = static_cast<PartitionId>(part);
        has_part = true;
      } else if (key == "from") {
        e.from = parse_u64_or(spec, value);
      } else {
        e.until = parse_u64_or(spec, value);
      }
    }
    if (e.kind != FaultKind::kStallWindow && e.nth == 0 && e.prob == 0.0) {
      bad_spec(spec, "a drop needs nth >= 1 or prob > 0");
    }
    if (e.kind == FaultKind::kStallWindow && !has_part) {
      bad_spec(spec, "a stall needs part");
    }
    if (e.kind == FaultKind::kStallWindow && e.until != 0 &&
        e.until <= e.from) {
      bad_spec(spec, "stall window must have until > from");
    }
    sched.events.push_back(e);
  }
  return sched;
}

}  // namespace gpusim
