// FlightRecorder unit tests: the bounded ring's eviction order, the
// canonical (logical-order) serialization that makes a restored ring hash
// identically to the original regardless of where the write head sat, the
// typed rejection of malformed snapshots, and the event-volume bounds
// (xbar throttle, monotone high-water marks) that keep the recorder cheap
// enough to stay on always.
#include "common/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {
namespace {

FlightRecorder make_recorder(int capacity, int partitions = 2) {
  FlightRecorder fr;
  fr.init(capacity, partitions);
  return fr;
}

u64 hash_of(const FlightRecorder& fr) {
  Hasher h;
  fr.hash(h);
  return h.digest();
}

TEST(FlightRecorderTest, RingEvictsOldestAndKeepsLifetimeTotal) {
  FlightRecorder fr = make_recorder(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(static_cast<Cycle>(100 + i), FrEvent::kBlockDispatch, i % 3,
              0, static_cast<u64>(i), 0);
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.total_recorded(), 10u);

  const std::vector<FlightEvent> events = fr.events_in_order();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest surviving event is #6 of the ten recorded.
    EXPECT_EQ(events[i].cycle, 106u + i);
    EXPECT_EQ(events[i].a, 6u + i);
  }
}

TEST(FlightRecorderTest, SerializationRoundTripsAcrossAWrappedRing) {
  FlightRecorder fr = make_recorder(4);
  // 10 > capacity, so the physical ring is wrapped (head mid-buffer).
  for (int i = 0; i < 10; ++i) {
    fr.record(static_cast<Cycle>(i), FrEvent::kFaultDropReq, i, 1,
              0x1000u + static_cast<u64>(i), static_cast<u64>(i % 5));
  }
  StateWriter w;
  fr.save(w);

  FlightRecorder restored = make_recorder(4);
  StateReader r(w.bytes());
  restored.load(r);
  EXPECT_NO_THROW(r.require_end());

  EXPECT_EQ(restored.size(), fr.size());
  EXPECT_EQ(restored.total_recorded(), fr.total_recorded());
  // Canonical order: even though the restored ring's head sits at a
  // different physical index (load() rebuilds from slot 0), the logical
  // contents — and therefore the hash — are identical.
  EXPECT_EQ(hash_of(restored), hash_of(fr));

  const std::vector<FlightEvent> a = fr.events_in_order();
  const std::vector<FlightEvent> b = restored.events_in_order();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].unit, b[i].unit);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
}

TEST(FlightRecorderTest, LoadRejectsCapacityMismatchWithTypedError) {
  FlightRecorder fr = make_recorder(4);
  fr.record(1, FrEvent::kBlockDispatch, 0, 0, 0, 0);
  StateWriter w;
  fr.save(w);

  FlightRecorder other = make_recorder(8);
  StateReader r(w.bytes());
  try {
    other.load(r);
    FAIL() << "expected SimError(kSnapshot)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
    EXPECT_EQ(e.component(), "common.flight_recorder");
  }
}

TEST(FlightRecorderTest, LoadRejectsUnknownEventKindOrApp) {
  // Hand-author a FREC stream whose single event has kind 200, or an app
  // id the 16-bit event field must not truncate.
  struct Case {
    u8 kind;
    i32 app;
    const char* message;
  };
  for (const Case c : {Case{200, 0, "event kind"},
                       Case{0, kMaxApps, "event app id"},
                       Case{0, 1 << 16, "event app id"}}) {
    SCOPED_TRACE(c.message);
    StateWriter w;
    w.put_tag("FREC");
    w.put_u32(4);   // capacity
    w.put_u64(1);   // total
    w.put_u64(0);   // next_stall req
    w.put_u64(0);   // next_stall resp
    w.put_u32(2);   // partitions
    for (int i = 0; i < 4; ++i) w.put_u64(0);  // resp_hw + defer_hw
    w.put_u64(1);   // event count
    w.put_u64(42);  // cycle
    w.put_u8(c.kind);
    w.put_i32(0);
    w.put_i32(c.app);
    w.put_u64(0);
    w.put_u64(0);

    FlightRecorder fr = make_recorder(4);
    StateReader r(w.bytes());
    try {
      fr.load(r);
      FAIL() << "expected SimError(kSnapshot)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.message), std::string::npos) << msg;
    }
  }
}

TEST(FlightRecorderTest, XbarStallThrottleBoundsEventVolume) {
  FlightRecorder fr = make_recorder(1024);
  // A saturated NoC reports a stall every cycle; the throttle must record
  // at most one episode per channel per kStallThrottle cycles.
  constexpr Cycle kCycles = 10 * FlightRecorder::kStallThrottle;
  for (Cycle c = 0; c < kCycles; ++c) {
    fr.note_xbar_stall(c, false, 0xF);
    fr.note_xbar_stall(c, true, 0x3);
  }
  EXPECT_EQ(fr.total_recorded(),
            2 * (kCycles / FlightRecorder::kStallThrottle));
  // A zero mask is never an episode.
  fr.note_xbar_stall(kCycles, false, 0);
  EXPECT_EQ(fr.total_recorded(),
            2 * (kCycles / FlightRecorder::kStallThrottle));
}

TEST(FlightRecorderTest, HighWaterMarksAreMonotonePerPartition) {
  FlightRecorder fr = make_recorder(64);
  fr.note_resp_occupancy(1, 0, 3, 8);
  fr.note_resp_occupancy(2, 0, 3, 8);  // not a new max: no event
  fr.note_resp_occupancy(3, 0, 2, 8);  // below max: no event
  fr.note_resp_occupancy(4, 0, 5, 8);  // new max
  fr.note_resp_occupancy(5, 1, 1, 8);  // independent partition
  EXPECT_EQ(fr.total_recorded(), 3u);

  // Deferred backlog records doubling marks only.
  fr.note_deferred_backlog(6, 0, 1);
  fr.note_deferred_backlog(7, 0, 2);
  fr.note_deferred_backlog(8, 0, 3);  // new max but not a power of two
  fr.note_deferred_backlog(9, 0, 4);
  EXPECT_EQ(fr.total_recorded(), 6u);
}

}  // namespace
}  // namespace gpusim
