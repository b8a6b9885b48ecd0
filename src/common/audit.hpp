// SimGuard request-conservation auditing.
//
// Every memory request packet an SM emits must eventually come back as
// exactly one response packet: SM out-queue -> request crossbar -> L2/MSHR
// (merges fan back out one response per waiter) -> DRAM -> response
// crossbar -> SM.  A dropped packet (leak) strands a warp forever and
// silently skews every slowdown number; a duplicated completion corrupts
// warp scoreboards.  The components increment cheap always-on taps at the
// four choke points; Gpu::audit_conservation() combines them with a walk of
// everything currently in flight and flags any imbalance.
#pragma once

#include <array>
#include <sstream>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gpusim {

/// Counters incremented at the packet-conservation choke points.
struct ConservationTaps {
  PerAppCounter requests_sent;        ///< SM pushed a packet into its out queue
  PerAppCounter requests_consumed;    ///< partition accepted a packet (hit/miss/merge)
  PerAppCounter responses_enqueued;   ///< partition produced a response packet
  PerAppCounter responses_delivered;  ///< Gpu handed a response to an SM

  template <typename Sink>
  void write_state(Sink& s) const {
    requests_sent.write_state(s);
    requests_consumed.write_state(s);
    responses_enqueued.write_state(s);
    responses_delivered.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    requests_sent.load(r);
    requests_consumed.load(r);
    responses_enqueued.load(r);
    responses_delivered.load(r);
  }
};

/// Result of one conservation audit.  `leaked[a] = sent - delivered -
/// in_flight` for app a: positive means packets vanished, negative means
/// something completed twice.  ok() holds only when every app balances
/// exactly.
struct AuditReport {
  std::array<u64, kMaxApps> sent{};
  std::array<u64, kMaxApps> consumed{};
  std::array<u64, kMaxApps> enqueued{};
  std::array<u64, kMaxApps> delivered{};
  std::array<u64, kMaxApps> in_flight{};
  std::array<i64, kMaxApps> leaked{};
  Cycle cycle = 0;

  i64 total_leaked() const {
    i64 sum = 0;
    for (i64 v : leaked) sum += v;
    return sum;
  }
  bool ok() const {
    for (i64 v : leaked) {
      if (v != 0) return false;
    }
    return true;
  }

  std::string to_string() const {
    std::ostringstream ss;
    ss << "conservation audit @ cycle " << cycle
       << (ok() ? " [ok]" : " [VIOLATION]");
    for (int a = 0; a < kMaxApps; ++a) {
      if (sent[a] == 0 && delivered[a] == 0 && in_flight[a] == 0 &&
          leaked[a] == 0) {
        continue;
      }
      ss << "\n    app " << a << ": sent=" << sent[a]
         << " consumed=" << consumed[a] << " resp_enqueued=" << enqueued[a]
         << " delivered=" << delivered[a] << " in_flight=" << in_flight[a]
         << " leaked=" << leaked[a];
    }
    return ss.str();
  }
};

}  // namespace gpusim
