// FlightRecorder: a bounded, allocation-free event ring that feeds the
// Perfetto trace.
//
// The recorder stages load-bearing events — block dispatches,
// SM-repartition handovers, fault-injector firings, crossbar stall
// episodes, partition-queue high-water marks — in a fixed-capacity ring
// that the TelemetryHub drains at every estimation-interval boundary.  It
// is cheap enough to stay on always and is fully serialized through the
// SimState walk, so it survives snapshot / restore.
//
// Determinism contract: every tap records *simulated-state transitions
// only*, so the ring contents (and therefore the state hash) are
// bit-identical whether the activity engine is on or off.  Concretely:
//   - block dispatch events fire from an SM's cycle, and a skipped SM is
//     provably quiet (no dispatch);
//   - migration events fire under either engine, from set_partition or
//     from the last step of a cycle, after the same SM work; a draining SM
//     that sleeps is frozen, so it empties on the same cycle either way;
//   - fault events only occur while the engine is pinned off (injector
//     attached);
//   - high-water marks are monotone functions of queue occupancy, which
//     evolves identically under either engine;
//   - crossbar stall episodes are derived from transfer()'s blocked-source
//     mask, and the engine only skips transfer() when every source FIFO is
//     empty — a state in which the mask is zero anyway.  A per-channel
//     cycle throttle (serialized) bounds the volume on saturated NoCs.
//
// The throttle is sized for the two bounds downstream of it: a 50K-cycle
// interval holds at most 2 * 50K / kStallThrottle (about 25) stall
// episodes, which leaves room for the interval's migration and dispatch
// events in the kCapacity ring and for a whole run's in the TelemetryHub's
// trace cap.  A much shorter throttle lets the episodes evict the
// migration events the trace's drain spans are built from.
//
// The ring buffer is allocated once at init() and never grows; record() is
// a struct store.  Serialization is canonical (logical
// oldest→newest order, not physical ring positions), so a restored ring
// hashes identically to the original no matter where the write head sat.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

enum class FrEvent : u8 {
  kBlockDispatch = 0,    ///< unit=sm, app; a=block index
  kMigrationRequested,   ///< a=SMs changing owner
  kMigrationHandover,    ///< unit=sm, app=new owner; a=old owner (+1, 0=none)
  kMigrationComplete,    ///< migration drained; partition now as desired
  kFaultDropResp,        ///< unit=sm; a=line addr
  kFaultDropReq,         ///< unit=partition; a=line addr
  kRespHighWater,        ///< unit=partition; a=new max occupancy, b=capacity
  kDeferHighWater,       ///< unit=partition; a=deferred-resp backlog (pow2)
  kXbarReqStall,         ///< a=blocked-source mask, b=blocked count
  kXbarRespStall,        ///< a=blocked-source mask, b=blocked count
};

inline constexpr u8 kNumFrEvents = 10;

inline const char* to_string(FrEvent e) {
  switch (e) {
    case FrEvent::kBlockDispatch: return "block-dispatch";
    case FrEvent::kMigrationRequested: return "migration-requested";
    case FrEvent::kMigrationHandover: return "migration-handover";
    case FrEvent::kMigrationComplete: return "migration-complete";
    case FrEvent::kFaultDropResp: return "fault-drop-resp";
    case FrEvent::kFaultDropReq: return "fault-drop-req";
    case FrEvent::kRespHighWater: return "resp-high-water";
    case FrEvent::kDeferHighWater: return "defer-high-water";
    case FrEvent::kXbarReqStall: return "xbar-req-stall";
    case FrEvent::kXbarRespStall: return "xbar-resp-stall";
  }
  return "?";
}

/// One recorded event.  POD so the ring is a flat allocation.
struct FlightEvent {
  Cycle cycle = 0;
  u64 a = 0;      ///< event-specific payload (see FrEvent)
  u64 b = 0;
  i32 unit = -1;  ///< SM or partition index, -1 = none
  i16 app = -1;   ///< owning application, -1 = none
  FrEvent kind = FrEvent::kBlockDispatch;
};
static_assert(sizeof(FlightEvent) == 32);

/// Narrows a stored event's app id; a restored value outside
/// [-1, kMaxApps) is a corrupt snapshot, not a value to truncate.
inline i16 checked_event_app(i32 app, const char* component) {
  SIM_CHECK(app >= -1 && app < kMaxApps,
            SimError(SimErrorKind::kSnapshot, component,
                     "event app id out of range")
                .detail("app", app));
  return static_cast<i16>(app);
}

class FlightRecorder {
 public:
  /// At most one crossbar-stall event per channel per this many cycles.
  static constexpr Cycle kStallThrottle = 4096;
  /// Events a Gpu's ring holds between two interval drains.
  static constexpr int kCapacity = 1024;

  FlightRecorder() = default;

  /// One-time sizing (Gpu construction: kCapacity; tests use small rings).
  void init(int capacity, int num_partitions) {
    assert(capacity > 0);
    capacity_ = static_cast<u32>(capacity);
    buf_.assign(capacity_, FlightEvent{});
    head_ = 0;
    count_ = 0;
    total_ = 0;
    resp_hw_.assign(static_cast<std::size_t>(num_partitions), 0);
    defer_hw_.assign(static_cast<std::size_t>(num_partitions), 0);
    next_stall_[0] = next_stall_[1] = 0;
  }

  u32 capacity() const { return capacity_; }
  u32 size() const { return count_; }
  /// Events ever recorded, including ones the ring has since evicted.
  u64 total_recorded() const { return total_; }
  /// Per-partition response-queue high-water mark (telemetry tap).
  u64 resp_high_water(int part) const {
    return resp_hw_[static_cast<std::size_t>(part)];
  }

  void record(Cycle cycle, FrEvent kind, int unit, int app, u64 a, u64 b) {
    assert(app >= -1 && app < kMaxApps);
    FlightEvent& e = buf_[head_];
    e.cycle = cycle;
    e.kind = kind;
    e.unit = static_cast<i32>(unit);
    e.app = static_cast<i16>(app);
    e.a = a;
    e.b = b;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    if (count_ < capacity_) ++count_;
    ++total_;
  }

  /// Partition response-queue occupancy after a push: records every new
  /// per-partition maximum (monotone, so at most `capacity` events per
  /// partition over a whole run).
  void note_resp_occupancy(Cycle cycle, int part, std::size_t size,
                           std::size_t cap) {
    u64& hw = resp_hw_[static_cast<std::size_t>(part)];
    if (size <= hw) return;
    hw = size;
    record(cycle, FrEvent::kRespHighWater, part, -1, size, cap);
  }

  /// Deferred-response backlog (backpressure overflow): records doubling
  /// marks of the per-partition maximum, so even a 64K-deep backlog costs
  /// at most ~17 events.
  void note_deferred_backlog(Cycle cycle, int part, std::size_t size) {
    u64& hw = defer_hw_[static_cast<std::size_t>(part)];
    if (size <= hw) return;
    hw = size;
    const u64 s = static_cast<u64>(size);
    if ((s & (s - 1)) != 0) return;  // record powers of two only
    record(cycle, FrEvent::kDeferHighWater, part, -1, s, 0);
  }

  /// Crossbar stall episode: `blocked` is transfer()'s ready-but-unaccepted
  /// source mask.  Throttled per channel so a saturated NoC records one
  /// episode per kStallThrottle cycles instead of one per cycle.
  void note_xbar_stall(Cycle cycle, bool resp_channel, u64 blocked) {
    if (blocked == 0) return;
    Cycle& next = next_stall_[resp_channel ? 1 : 0];
    if (cycle < next) return;
    next = cycle + kStallThrottle;
    int n = 0;
    for (u64 m = blocked; m != 0; m &= m - 1) ++n;
    record(cycle, resp_channel ? FrEvent::kXbarRespStall : FrEvent::kXbarReqStall,
           -1, -1, blocked, static_cast<u64>(n));
  }

  /// Ring contents, oldest first.
  std::vector<FlightEvent> events_in_order() const {
    std::vector<FlightEvent> out;
    out.reserve(count_);
    const u32 start = count_ < capacity_ ? 0 : head_;
    for (u32 i = 0; i < count_; ++i) {
      out.push_back(buf_[(start + i) % capacity_]);
    }
    return out;
  }

  // -- SimState ----------------------------------------------------------
  // Canonical serialization: capacity (checked on load),
  // the throttle/high-water cursors, then the held events oldest→newest.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("FREC");
    s.put_u32(capacity_);
    s.put_u64(total_);
    s.put_u64(next_stall_[0]);
    s.put_u64(next_stall_[1]);
    s.put_u32(static_cast<u32>(resp_hw_.size()));
    for (const u64 v : resp_hw_) s.put_u64(v);
    for (const u64 v : defer_hw_) s.put_u64(v);
    s.put_u64(count_);
    const u32 start = count_ < capacity_ ? 0 : head_;
    for (u32 i = 0; i < count_; ++i) {
      const FlightEvent& e = buf_[(start + i) % capacity_];
      s.put_u64(e.cycle);
      s.put_u8(static_cast<u8>(e.kind));
      s.put_i32(e.unit);
      s.put_i32(e.app);
      s.put_u64(e.a);
      s.put_u64(e.b);
    }
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("FREC");
    const u32 cap = r.get_u32();
    SIM_CHECK(cap == capacity_,
              SimError(SimErrorKind::kSnapshot, "common.flight_recorder",
                       "flight recorder capacity mismatch")
                  .detail("snapshot_capacity", cap)
                  .detail("configured_capacity", capacity_));
    const u64 stored_total = r.get_u64();
    next_stall_[0] = r.get_u64();
    next_stall_[1] = r.get_u64();
    const u32 parts = r.get_u32();
    SIM_CHECK(parts == resp_hw_.size(),
              SimError(SimErrorKind::kSnapshot, "common.flight_recorder",
                       "flight recorder partition count mismatch")
                  .detail("snapshot_partitions", parts)
                  .detail("configured_partitions", resp_hw_.size()));
    for (u64& v : resp_hw_) v = r.get_u64();
    for (u64& v : defer_hw_) v = r.get_u64();
    const u64 n = r.get_count(capacity_, "flight recorder events");
    head_ = 0;
    count_ = 0;
    for (u64 i = 0; i < n; ++i) {
      const u64 cycle = r.get_u64();
      const u8 kind = r.get_u8();
      SIM_CHECK(kind < kNumFrEvents,
                SimError(SimErrorKind::kSnapshot, "common.flight_recorder",
                         "unknown flight recorder event kind")
                    .detail("kind", static_cast<int>(kind))
                    .detail("event_index", i));
      const i32 unit = r.get_i32();
      const i16 app = checked_event_app(r.get_i32(), "common.flight_recorder");
      const u64 a = r.get_u64();
      const u64 b = r.get_u64();
      record(cycle, static_cast<FrEvent>(kind), unit, app, a, b);
    }
    // record() bumped total_ once per replayed event; the stored lifetime
    // counter (which also covers evicted events) is authoritative.
    total_ = stored_total;
  }

 private:
  u32 capacity_ = 0;
  u32 head_ = 0;
  u32 count_ = 0;
  u64 total_ = 0;
  std::vector<FlightEvent> buf_;
  std::vector<u64> resp_hw_;   ///< per-partition resp-queue high-water
  std::vector<u64> defer_hw_;  ///< per-partition deferred-backlog high-water
  Cycle next_stall_[2] = {0, 0};  ///< xbar stall throttle (req, resp)
};

}  // namespace gpusim
