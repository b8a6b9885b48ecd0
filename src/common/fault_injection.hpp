// SimGuard fault injection: timed, typed, serializable fault schedules.
//
// The watchdog and the request-conservation auditor only earn their keep
// if we can prove they fire.  A FaultSchedule is a deterministic timeline
// of typed fault events — drop the Nth response or request, or freeze a
// partition over a cycle window (recovering when the window closes, or
// never) — evaluated by a FaultInjector at the hook points the Gpu and
// MemoryPartition expose.  Probabilistic drops draw from the simulator's
// own seeded Rng (rng.hpp) so every injected failure is bit-reproducible,
// and the injector's counters and RNG serialize through the SimState walk
// so a snapshot taken while an nth-event fault is armed replays the fault
// at the *same* event after a restore.
//
// Schedules round-trip through a compact spec string
// (`drop-resp:nth=200;stall:part=0,from=1000,until=5000;seed=7`): the
// CLI's --fault-schedule arms one on a plain run, and crash bundles record
// it so --triage re-arms the same schedule.
//
// Injection simulates a *bug*, so the conservation taps are deliberately
// not told about dropped packets: the auditor must discover the imbalance
// on its own, exactly as it would for a real leak.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

enum class FaultKind : u8 {
  kDropResponse,  ///< drop the Nth response (or each with prob) at delivery
  kDropRequest,   ///< drop the Nth request at a partition's input port
  kStallWindow,   ///< freeze a partition for [from, until); until=0 = forever
};

const char* to_string(FaultKind kind);

/// One entry on the fault timeline.  Which fields matter depends on `kind`;
/// the rest stay at their defaults and are ignored.
struct FaultEvent {
  FaultKind kind = FaultKind::kDropResponse;
  u64 nth = 0;        ///< 1-based event ordinal (responses / requests)
  double prob = 0.0;  ///< kDropResponse only: per-response drop probability
  PartitionId partition = -1;  ///< kStallWindow target (-1 = none)
  Cycle from = 0;   ///< kStallWindow: first affected cycle
  Cycle until = 0;  ///< kStallWindow: first cycle after the window (0=forever)
};

/// Deterministic timeline of fault events plus the RNG seed for any
/// probabilistic event.  Plain data: the schedule is configuration, not
/// state — only the FaultInjector's progress counters serialize.
struct FaultSchedule {
  std::vector<FaultEvent> events;
  u64 seed = 1;

  bool any() const { return !events.empty(); }

  // Fluent builders so call sites read like the old FaultPlan fields.
  FaultSchedule& drop_response_nth(u64 n) {
    FaultEvent e;
    e.kind = FaultKind::kDropResponse;
    e.nth = n;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& drop_response_prob(double p) {
    FaultEvent e;
    e.kind = FaultKind::kDropResponse;
    e.prob = p;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& drop_request_nth(u64 n) {
    FaultEvent e;
    e.kind = FaultKind::kDropRequest;
    e.nth = n;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& stall_partition(PartitionId p, Cycle from, Cycle until = 0) {
    FaultEvent e;
    e.kind = FaultKind::kStallWindow;
    e.partition = p;
    e.from = from;
    e.until = until;
    events.push_back(e);
    return *this;
  }
  FaultSchedule& with_seed(u64 s) {
    seed = s;
    return *this;
  }

  /// Canonical spec string, e.g. `drop-resp:nth=200;stall:part=0,from=1000`
  /// with a trailing `;seed=N`.  parse(to_string()) round-trips.
  std::string to_string() const;

  /// Parses a spec string.  Throws SimError(kConfig) on malformed input.
  /// The empty string parses to an empty (inactive) schedule.
  static FaultSchedule parse(const std::string& spec);
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule)
      : schedule_(std::move(schedule)), rng_(schedule_.seed) {}

  /// Hook: Gpu is about to deliver a matured response to an SM.
  bool should_drop_response() {
    ++responses_seen_;
    for (const FaultEvent& e : schedule_.events) {
      if (e.kind == FaultKind::kDropResponse &&
          ((e.nth != 0 && responses_seen_ == e.nth) ||
           (e.prob > 0.0 && rng_.next_bool(e.prob)))) {
        ++responses_dropped_;
        return true;
      }
    }
    return false;
  }

  /// Hook: a partition is about to consume a request from its input queue.
  bool should_drop_request() {
    ++requests_seen_;
    for (const FaultEvent& e : schedule_.events) {
      if (e.kind == FaultKind::kDropRequest && e.nth != 0 &&
          requests_seen_ == e.nth) {
        ++requests_dropped_;
        return true;
      }
    }
    return false;
  }

  /// Hook: Gpu asks whether partition `p` is frozen this cycle.  A stall
  /// window with until=0 never recovers (the original hard-stall fault).
  bool partition_stalled(PartitionId p, Cycle now) const {
    for (const FaultEvent& e : schedule_.events) {
      if (e.kind == FaultKind::kStallWindow && e.partition == p &&
          now >= e.from && (e.until == 0 || now < e.until)) {
        return true;
      }
    }
    return false;
  }

  u64 responses_seen() const { return responses_seen_; }
  u64 responses_dropped() const { return responses_dropped_; }
  u64 requests_dropped() const { return requests_dropped_; }
  const FaultSchedule& schedule() const { return schedule_; }

  // Progress counters and RNG are simulation state (the schedule itself is
  // configuration, covered by the snapshot fingerprint via the harness
  // context).  Serialized through the Gpu's SimState walk so nth-event
  // faults replay at the same event after a snapshot restore.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("FINJ");
    s.put_u64(responses_seen_);
    s.put_u64(responses_dropped_);
    s.put_u64(requests_seen_);
    s.put_u64(requests_dropped_);
    rng_.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("FINJ");
    responses_seen_ = r.get_u64();
    responses_dropped_ = r.get_u64();
    requests_seen_ = r.get_u64();
    requests_dropped_ = r.get_u64();
    rng_.load(r);
  }

 private:
  FaultSchedule schedule_;
  Rng rng_;
  u64 responses_seen_ = 0;
  u64 responses_dropped_ = 0;
  u64 requests_seen_ = 0;
  u64 requests_dropped_ = 0;
};

/// Number of distinct config-corruption rules in the table below.
std::size_t corruption_rule_count();

/// Human-readable name of corruption rule `index` (for test diagnostics).
const char* corruption_rule_name(std::size_t index);

/// Deterministically corrupts one configuration field (`seed %
/// corruption_rule_count()` selects which).  The table covers every
/// GpuConfig::validate() rule, so iterating seed over [0, rule_count)
/// proves the config layer rejects each class of garbage before a
/// simulation can silently run with it — and a validate() rule added
/// without a matching corruption shows up as an uncovered table entry.
void corrupt_config(GpuConfig& cfg, u64 seed);

}  // namespace gpusim
