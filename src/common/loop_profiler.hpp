// Built-in cycle-loop profiler (--profile-loop).
//
// Attributes wall time and visit counts to the phases of the simulator's
// hot loop — SM advance, response delivery, the two crossbar directions,
// the memory partitions and interval bookkeeping — so performance PRs
// argue from measured breakdowns instead of guesses.
// When no profiler is attached the per-cycle cost is a null-pointer check
// per phase; the chrono reads only happen while profiling.
#pragma once

#include <array>
#include <chrono>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace gpusim {

class LoopProfiler {
 public:
  enum Phase : int {
    kSmAdvance = 0,     ///< SmCore::cycle() calls (issue/dispatch/refill)
    kRespDelivery,      ///< crossbar delivery queues -> SmCore::receive()
    kXbarReq,           ///< request crossbar transfer (SM -> partition)
    kXbarResp,          ///< response crossbar transfer (partition -> SM)
    kPartition,         ///< MemoryPartition::cycle() (L2 + DRAM)
    kIntervalBookkeeping,  ///< end_interval() + observer dispatch
    kNumPhases,
  };

  /// Bench/CLI JSON key stem for one phase ("sm_advance", ...).
  static const char* phase_key(int p) {
    static const char* const names[kNumPhases] = {
        "sm_advance", "resp_delivery", "xbar_req",
        "xbar_resp",  "partition",     "interval_bookkeeping",
    };
    return p >= 0 && p < kNumPhases ? names[p] : "unknown";
  }

  static u64 now_ns() {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void add(Phase p, u64 ns, u64 visits) {
    ns_[p] += ns;
    visits_[p] += visits;
  }

  u64 ns(Phase p) const { return ns_[p]; }
  u64 visits(Phase p) const { return visits_[p]; }
  u64 total_ns() const {
    u64 t = 0;
    for (u64 v : ns_) t += v;
    return t;
  }

  void reset() {
    ns_.fill(0);
    visits_.fill(0);
  }

  /// Flat JSON fragment, one `"profile_<phase>_{ns,visits}": N` pair per
  /// phase, each on its own line (the repo's awk-greppable BENCH format).
  /// `trailing_comma` controls the comma after the final line.
  std::string to_json_lines(bool trailing_comma) const {
    std::ostringstream ss;
    for (int p = 0; p < kNumPhases; ++p) {
      ss << "\"profile_" << phase_key(p) << "_ns\": " << ns_[p] << ",\n";
      ss << "\"profile_" << phase_key(p) << "_visits\": " << visits_[p];
      if (trailing_comma || p + 1 < kNumPhases) ss << ',';
      ss << '\n';
    }
    return ss.str();
  }

 private:
  std::array<u64, kNumPhases> ns_{};
  std::array<u64, kNumPhases> visits_{};
};

/// Scoped phase timer: charges the enclosed span to `phase` when a profiler
/// is attached, and compiles down to a null check when none is.
class ProfScope {
 public:
  ProfScope(LoopProfiler* prof, LoopProfiler::Phase phase, u64 visits = 1)
      : prof_(prof), phase_(phase), visits_(visits),
        start_(prof != nullptr ? LoopProfiler::now_ns() : 0) {}
  ~ProfScope() {
    if (prof_ != nullptr) {
      prof_->add(phase_, LoopProfiler::now_ns() - start_, visits_);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// Overrides the visit count charged at scope exit (e.g. packets actually
  /// delivered, discovered inside the scope).
  void set_visits(u64 visits) { visits_ = visits; }

 private:
  LoopProfiler* prof_;
  LoopProfiler::Phase phase_;
  u64 visits_;
  u64 start_;
};

}  // namespace gpusim
