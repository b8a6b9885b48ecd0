// A memory partition: one shared-L2 slice, its MSHRs, the per-application
// sampled auxiliary tag directories, and the DRAM memory controller behind
// them (paper Fig. 1: "each memory partition has a L2 cache and a DRAM
// memory subsystem").
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "cache/atd.hpp"
#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/audit.hpp"
#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "common/flight_recorder.hpp"
#include "common/sim_error.hpp"
#include "common/stats.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"
#include "mem/request.hpp"

namespace gpusim {

/// Per-partition counters beyond the MC's own.
struct PartitionCounters {
  PerAppCounter l2_accesses;
  PerAppCounter l2_hits;
  /// DASE's ELLCMiss events observed in the sampled ATD sets (raw, unscaled).
  PerAppCounter atd_extra_miss_samples;
  /// L2 accesses while the app held / nobody held DRAM priority — the
  /// cache-access-rate inputs of the ASM baseline.
  PerAppCounter l2_accesses_priority;
  PerAppCounter l2_accesses_nonpriority;

  void snapshot_all() {
    l2_accesses.snapshot();
    l2_hits.snapshot();
    atd_extra_miss_samples.snapshot();
    l2_accesses_priority.snapshot();
    l2_accesses_nonpriority.snapshot();
  }

  template <typename Sink>
  void write_state(Sink& s) const {
    l2_accesses.write_state(s);
    l2_hits.write_state(s);
    atd_extra_miss_samples.write_state(s);
    l2_accesses_priority.write_state(s);
    l2_accesses_nonpriority.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    l2_accesses.load(r);
    l2_hits.load(r);
    atd_extra_miss_samples.load(r);
    l2_accesses_priority.load(r);
    l2_accesses_nonpriority.load(r);
  }
};

class MemoryPartition {
 public:
  MemoryPartition(const GpuConfig& cfg, int num_apps, PartitionId id);

  /// Output queue the response crossbar drains.
  BoundedQueue<MemResponsePacket>& resp_queue() { return resp_queue_; }
  const BoundedQueue<MemResponsePacket>& resp_queue() const {
    return resp_queue_;
  }

  /// Advances one cycle: progresses DRAM, retires fills, consumes the
  /// request crossbar's delivery queue `in_queue` through the L2 stage.
  void cycle(Cycle now, BoundedQueue<MemRequestPacket>& in_queue);

  /// SimGuard wiring (both optional; owned by the Gpu).
  void set_taps(ConservationTaps* taps) { taps_ = taps; }
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Optional black-box flight recorder (owned by the Gpu): queue
  /// high-water marks and injected-fault firings are recorded into it.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Adds every response this partition still owes (MSHR waiters, pending
  /// hits, deferred and queued responses) to the per-app tally.
  void count_in_flight(std::array<u64, kMaxApps>& out) const;

  MemoryController& mc() { return mc_; }
  const MemoryController& mc() const { return mc_; }
  PartitionCounters& counters() { return counters_; }
  const PartitionCounters& counters() const { return counters_; }
  const SetAssocCache& l2() const { return l2_; }
  const SampledAtd& atd(AppId app) const { return *atds_[app]; }

  /// Scaled ELLCMiss (Eq. 13) accumulated since the last snapshot.
  u64 interval_scaled_extra_misses(AppId app) const {
    return counters_.atd_extra_miss_samples.interval(app) *
           static_cast<u64>(1.0 / atds_[app]->sample_fraction() + 0.5);
  }

  /// Outstanding work in this partition (for drain checks).
  bool quiescent() const {
    return resp_queue_.empty() && mshr_.in_flight() == 0 &&
           pending_hits_.empty() && deferred_resps_.empty() &&
           mc_.total_outstanding() == 0;
  }

  std::size_t deferred_responses() const { return deferred_resps_.size(); }
  int mshr_in_flight() const { return mshr_.in_flight(); }

  // --- Activity-engine support -------------------------------------------
  // Every stage of cycle() pops only queue *fronts*, so head-of-line
  // timestamps bound exactly when the partition can act again.  The
  // response queue's front maturity additionally gates the response
  // crossbar's ingress from this partition.  These predicates are valid
  // per-component at any cycle boundary: the activity engine sleeps an
  // individual partition on them and wakes it early when the request
  // crossbar accepts a packet toward it (DESIGN.md §12).

  /// True when cycle(now, in_queue) would change no state and the response
  /// crossbar could not accept a packet from this partition either.
  bool quiet_at(Cycle now,
                const BoundedQueue<MemRequestPacket>& in_queue) const {
    if (!deferred_resps_.empty()) return false;
    if (!resp_queue_.empty() && resp_queue_.front().ready <= now)
      return false;
    if (!pending_hits_.empty() && pending_hits_.front().ready <= now)
      return false;
    if (!in_queue.empty() && in_queue.front().ready <= now) return false;
    return mc_.quiet_at(now);
  }

  /// Earliest future cycle at which a quiet partition (or the crossbars
  /// around it) may act again.  Only meaningful when quiet_at() holds.
  Cycle next_event_after(Cycle now,
                         const BoundedQueue<MemRequestPacket>& in_queue)
      const {
    Cycle next = mc_.next_event_after(now);
    if (!resp_queue_.empty()) {
      next = std::min(next, resp_queue_.front().ready);
    }
    if (!pending_hits_.empty()) {
      next = std::min(next, pending_hits_.front().ready);
    }
    if (!in_queue.empty()) next = std::min(next, in_queue.front().ready);
    return next;
  }

  // SimState: the full partition pipeline.  completed_scratch_ is cleared at
  // the top of every cycle() and is dead between cycles; taps_/injector_ are
  // runtime wiring owned by the Gpu.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("PART");
    l2_.write_state(s);
    mshr_.write_state(s);
    for (const auto& atd : atds_) atd->write_state(s);
    mc_.write_state(s);
    resp_queue_.write_state(s);
    auto put_resps = [&s](const Ring<MemResponsePacket>& dq) {
      s.put_u64(dq.size());
      for (const MemResponsePacket& p : dq) write_item(s, p);
    };
    put_resps(pending_hits_);
    put_resps(deferred_resps_);
    counters_.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("PART");
    l2_.load(r);
    mshr_.load(r);
    for (auto& atd : atds_) atd->load(r);
    mc_.load(r);
    resp_queue_.load(r);
    auto get_resps = [&r](Ring<MemResponsePacket>& dq, const char* what) {
      dq.clear();
      const u64 n = r.get_count(1u << 20, what);
      for (u64 i = 0; i < n; ++i) {
        MemResponsePacket p;
        read_item(r, p);
        dq.push_back(p);
      }
    };
    get_resps(pending_hits_, "partition pending hits");
    get_resps(deferred_resps_, "partition deferred responses");
    counters_.load(r);
  }

 private:
  void push_response(MemResponsePacket resp, Cycle now);

  const GpuConfig& cfg_;
  PartitionId id_;
  AddressMap address_map_;
  SetAssocCache l2_;
  Mshr mshr_;
  std::vector<std::unique_ptr<SampledAtd>> atds_;
  MemoryController mc_;

  BoundedQueue<MemResponsePacket> resp_queue_;

  /// L2 hits in flight: responses mature after l2_hit_latency (FIFO works
  /// because the latency is constant).
  Ring<MemResponsePacket> pending_hits_;
  /// DRAM-fill responses awaiting space in the saturated response queue.
  Ring<MemResponsePacket> deferred_resps_;

  std::vector<DramCmd> completed_scratch_;
  PartitionCounters counters_;
  ConservationTaps* taps_ = nullptr;
  FaultInjector* injector_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace gpusim
