// Crossbar interconnect channel (paper Table II: one crossbar per
// direction, Local-RR arbitration).
//
// One CrossbarChannel models one direction: N source ports (FIFOs owned by
// the producers) feeding M destination ports (FIFOs owned by the channel).
// Each cycle every destination port independently round-robins over the
// sources, accepting up to `accepts_per_cycle` head-of-queue packets routed
// to it; each source may inject at most one packet per cycle (its output
// port is a single link).  Accepted packets become visible at the
// destination after `latency` cycles.  Head-of-line blocking at the source
// FIFOs and finite destination buffering are modelled deliberately — both
// are interference channels between concurrent applications.
//
// Hot-path shape: the Router is a template parameter so concrete routers
// (plain field reads in this simulator) inline into the arbitration loop —
// the std::function default exists only for tests and ad-hoc wiring.  A
// channel has at most 64 ports per side (GpuConfig::validate caps the
// machine), so transfer() routes each ready head once into a per-destination
// candidate bitmask and each destination picks its round-robin winner with a
// rotate and a count-trailing-zeros: a visit costs the ready heads, not
// destinations × sources probes, and an idle channel costs one pass over the
// source fronts.
#pragma once

#include <array>
#include <bit>
#include <functional>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/sim_error.hpp"
#include "common/types.hpp"

namespace gpusim {

template <typename Packet, typename Router = std::function<int(const Packet&)>>
class CrossbarChannel {
 public:
  using RouteFn = Router;

  CrossbarChannel(int num_sources, int num_dests, Cycle latency,
                  int accepts_per_cycle, int dest_queue_depth,
                  Router route)
      : latency_(latency),
        accepts_per_cycle_(accepts_per_cycle),
        route_(std::move(route)),
        rr_(num_dests, 0),
        num_sources_(num_sources),
        candidates_(num_dests, 0) {
    SIM_CHECK(num_sources > 0 && num_dests > 0 && accepts_per_cycle > 0 &&
                  num_sources <= 64 && num_dests <= 64,
              SimError(SimErrorKind::kConfig, "noc.crossbar",
                       "crossbar ports must number 1 to 64 per side and "
                       "accept at least one packet per cycle")
                  .detail("num_sources", num_sources)
                  .detail("num_dests", num_dests)
                  .detail("accepts_per_cycle", accepts_per_cycle));
    dest_queues_.reserve(num_dests);
    for (int d = 0; d < num_dests; ++d) {
      dest_queues_.emplace_back(dest_queue_depth);
    }
  }

  /// Moves packets from source FIFOs to destination FIFOs for one cycle.
  /// `sources[s]` is the output FIFO of source port s.
  ///
  /// Returns a bitmask of destination ports that accepted at least one
  /// packet this cycle — the activity engine uses it to schedule wake-ups
  /// at the packets' delivery cycle.
  ///
  /// Arbitration: destination d scans the sources in round-robin order from
  /// rr_[d], accepting up to `accepts_per_cycle` ready heads routed to it;
  /// after each accept rr_[d] moves past the winner while the scan's step
  /// count keeps running, so a later accept in the same cycle is searched
  /// from the new pointer plus the steps already taken.  Each source injects
  /// at most one packet per cycle, and a source's head is routed to one
  /// destination, so the destinations' candidate sets are disjoint and
  /// their order does not matter.
  ///
  /// When `blocked_out` is non-null it receives a bitmask of source ports
  /// whose head packet was ready this cycle but was not accepted —
  /// head-of-line blocking or destination back-pressure.
  u64 transfer(Cycle now, std::vector<BoundedQueue<Packet>*>& sources,
               u64* blocked_out = nullptr) {
    const int num_sources = static_cast<int>(sources.size());
    SIM_INVARIANT(num_sources == num_sources_, "noc.crossbar",
                  "source port count changed after wiring");
    const int num_dests = static_cast<int>(dest_queues_.size());

    // A set bit means "head packet is ready and this source has not
    // injected yet"; clearing it on accept enforces one packet per source.
    u64 ready = 0;
    std::array<int, 64> dest_of{};  // valid where `ready` has the bit
    for (int s = 0; s < num_sources; ++s) {
      const BoundedQueue<Packet>& sq = *sources[s];
      if (sq.empty() || sq.front().ready > now) continue;
      const int d = route_(sq.front());
      SIM_CHECK(d >= 0 && d < num_dests,
                SimError(SimErrorKind::kInvariant, "noc.crossbar",
                         "packet routed to a nonexistent port")
                    .cycle(now)
                    .detail("source_port", s)
                    .detail("dest_port", d)
                    .detail("num_dests", num_dests));
      dest_of[s] = d;
      ready |= u64{1} << s;
    }
    u64 wanted = 0;  // destinations with at least one candidate
    for (u64 m = ready; m != 0; m &= m - 1) {
      const int s = std::countr_zero(m);
      candidates_[dest_of[s]] |= u64{1} << s;
      wanted |= u64{1} << dest_of[s];
    }

    u64 accepted_dests = 0;
    for (u64 todo = wanted; todo != 0; todo &= todo - 1) {
      const int d = std::countr_zero(todo);
      u64 cand = candidates_[d];
      candidates_[d] = 0;
      BoundedQueue<Packet>& dq = dest_queues_[d];
      int rr = rr_[d];
      int step = 0;  // round-robin positions already scanned this cycle
      for (int accepted = 0;
           accepted < accepts_per_cycle_ && !dq.full() && cand != 0;
           ++accepted) {
        // Candidates in scan order: bit k is source (rr + k) mod n.
        const u64 ahead = rotate_right(cand, rr, num_sources) &
                          (~u64{0} << step);
        if (ahead == 0) break;
        const int k = std::countr_zero(ahead);
        const int s = rr + k < num_sources ? rr + k : rr + k - num_sources;
        Packet p = sources[s]->pop();
        p.ready = now + latency_;
        const bool ok = dq.try_push(std::move(p));
        SIM_CHECK(ok, SimError(SimErrorKind::kQueueOverflow, "noc.crossbar",
                               "destination queue overflow after full() check")
                          .cycle(now)
                          .detail("dest_port", d)
                          .detail("occupancy", dq.size())
                          .detail("capacity", dq.capacity()));
        cand &= ~(u64{1} << s);
        ready &= ~(u64{1} << s);
        rr = s + 1 < num_sources ? s + 1 : 0;
        step = k + 1;
        accepted_dests |= u64{1} << d;
        if (step >= num_sources) break;
      }
      rr_[d] = rr;
    }
    // Bits still set in `ready` are exactly the sources whose head packet
    // was injectable this cycle but went unaccepted.
    if (blocked_out != nullptr) *blocked_out = ready;
    return accepted_dests;
  }

  BoundedQueue<Packet>& dest_queue(int d) { return dest_queues_[d]; }
  const BoundedQueue<Packet>& dest_queue(int d) const {
    return dest_queues_[d];
  }
  int num_dests() const { return static_cast<int>(dest_queues_.size()); }

  bool all_empty() const {
    for (const auto& q : dest_queues_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  // SimState: destination FIFOs and round-robin pointers.  candidates_ is
  // scratch that transfer() leaves zeroed, so it is dead between cycles.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("XBAR");
    for (const auto& q : dest_queues_) q.write_state(s);
    for (int v : rr_) s.put_i32(v);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("XBAR");
    for (auto& q : dest_queues_) q.load(r);
    for (int& v : rr_) v = r.get_i32();
  }

 private:
  /// `mask` (n significant bits) rotated right by `by` < n within n bits.
  static u64 rotate_right(u64 mask, int by, int n) {
    if (by == 0) return mask;
    const u64 width = n == 64 ? ~u64{0} : (u64{1} << n) - 1;
    return ((mask >> by) | (mask << (n - by))) & width;
  }

  Cycle latency_;
  int accepts_per_cycle_;
  Router route_;
  std::vector<BoundedQueue<Packet>> dest_queues_;
  std::vector<int> rr_;
  int num_sources_;
  std::vector<u64> candidates_;  ///< per destination, zero between cycles
};

}  // namespace gpusim
