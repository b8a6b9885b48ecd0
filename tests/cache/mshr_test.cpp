#include "cache/mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_error.hpp"

namespace gpusim {
namespace {

/// Releases `line` and returns its waiters in fan-out order.
std::vector<MshrWaiter> drain(Mshr& m, u64 line) {
  std::vector<MshrWaiter> out;
  m.release(line, [&out](const MshrWaiter& w) { out.push_back(w); });
  return out;
}

TEST(MshrTest, FirstMissAllocates) {
  Mshr m(4);
  EXPECT_EQ(m.allocate(100, {0, 1, 0}), Mshr::AllocResult::kNewMiss);
  EXPECT_TRUE(m.contains(100));
  EXPECT_EQ(m.in_flight(), 1);
}

TEST(MshrTest, SecondaryMissMerges) {
  Mshr m(4);
  m.allocate(100, {0, 1, 0});
  EXPECT_EQ(m.allocate(100, {2, 5, 1}), Mshr::AllocResult::kMerged);
  EXPECT_EQ(m.in_flight(), 1) << "merge must not consume an entry";
  const auto waiters = drain(m, 100);
  ASSERT_EQ(waiters.size(), 2u);
  EXPECT_EQ(waiters[0].sm, 0);
  EXPECT_EQ(waiters[0].warp, 1);
  EXPECT_EQ(waiters[1].sm, 2);
  EXPECT_EQ(waiters[1].warp, 5);
  EXPECT_FALSE(m.contains(100));
}

TEST(MshrTest, RejectsWhenFull) {
  Mshr m(2);
  EXPECT_EQ(m.allocate(1, {}), Mshr::AllocResult::kNewMiss);
  EXPECT_EQ(m.allocate(2, {}), Mshr::AllocResult::kNewMiss);
  EXPECT_TRUE(m.full());
  EXPECT_EQ(m.allocate(3, {}), Mshr::AllocResult::kRejected);
  // Merging into an existing entry still works at capacity.
  EXPECT_EQ(m.allocate(1, {}), Mshr::AllocResult::kMerged);
  drain(m, 1);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.allocate(3, {}), Mshr::AllocResult::kNewMiss);
}

TEST(MshrTest, ReleaseFreesEntryForReuse) {
  Mshr m(1);
  m.allocate(7, {1, 2, 0});
  drain(m, 7);
  EXPECT_EQ(m.in_flight(), 0);
  EXPECT_EQ(m.allocate(7, {3, 4, 0}), Mshr::AllocResult::kNewMiss);
}

TEST(MshrTest, ClearDropsAllEntries) {
  Mshr m(4);
  m.allocate(1, {});
  m.allocate(2, {});
  m.clear();
  EXPECT_EQ(m.in_flight(), 0);
  EXPECT_FALSE(m.contains(1));
}

TEST(MshrTest, ReleaseOfALineWithNoEntryIsAnInvariantError) {
  // A response for a line the MSHR never tracked (or already completed) is
  // a double completion or a corrupt fill address: a typed kInvariant,
  // leaving the tracked entries untouched.
  Mshr m(4);
  m.allocate(100, {0, 1, 0});
  for (const u64 line : {u64{101}, u64{100} ^ (u64{1} << 40)}) {
    try {
      drain(m, line);
      FAIL() << "released untracked line " << line;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
    }
  }
  EXPECT_TRUE(m.contains(100));
  EXPECT_EQ(drain(m, 100).size(), 1u);
  EXPECT_THROW(drain(m, 100), SimError) << "second completion of one line";
}

TEST(MshrTest, ManyWaitersOnOneLine) {
  Mshr m(2);
  m.allocate(42, {0, 0, 0});
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(m.allocate(42, {0, i, 0}), Mshr::AllocResult::kMerged);
  }
  EXPECT_EQ(drain(m, 42).size(), 32u);
}

/// Releases `line`, folding each waiter into `h` in fan-out order.
void release_into(Hasher& h, Mshr& m, u64 line) {
  m.release(line, [&h](const MshrWaiter& w) {
    h.put_i32(w.sm);
    h.put_i32(w.warp);
    h.put_i32(w.app);
  });
}

TEST(MshrTest, SerializedStateIsPinned) {
  // Recorded with the unordered_map<u64, vector<MshrWaiter>> table: every
  // layout must answer the same allocate results, fan waiters out in the
  // same order and save the same sorted lines.
  Hasher h;
  for (const int entries : {8, 32}) {
    Mshr m(entries);
    Rng rng(static_cast<u64>(entries) * 101);
    for (int step = 0; step < 6000; ++step) {
      const u64 op = rng.next_below(10);
      const u64 line = rng.next_below(static_cast<u64>(entries) * 3) * 128;
      if (op < 6) {
        const MshrWaiter w{static_cast<SmId>(rng.next_below(16)),
                           static_cast<WarpId>(rng.next_below(48)),
                           static_cast<AppId>(rng.next_below(kMaxApps))};
        h.put_u32(static_cast<u32>(m.allocate(line, w)));
      } else if (op < 9) {
        if (m.contains(line)) release_into(h, m, line);
      } else if (rng.next_below(50) == 0) {
        m.clear();
      }
      if (step % 64 == 0) m.hash(h);
    }
    m.hash(h);

    StateWriter w;
    m.save(w);
    Mshr restored(entries);
    StateReader r(w.bytes());
    restored.load(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(state_hash_of(restored), state_hash_of(m));
  }
  EXPECT_EQ(h.digest(), 0x9BEB14E46C9535A1ULL);
}

/// The unordered_map<u64, vector<MshrWaiter>> table Mshr used before its
/// open-addressed layout, kept as the behavioural reference.
class MapMshr {
 public:
  explicit MapMshr(int max_entries) : max_entries_(max_entries) {}

  Mshr::AllocResult allocate(u64 line, MshrWaiter w) {
    auto it = entries_.find(line);
    if (it != entries_.end()) {
      it->second.push_back(w);
      return Mshr::AllocResult::kMerged;
    }
    if (static_cast<int>(entries_.size()) >= max_entries_) {
      return Mshr::AllocResult::kRejected;
    }
    entries_[line].push_back(w);
    return Mshr::AllocResult::kNewMiss;
  }
  std::vector<MshrWaiter> release(u64 line) {
    std::vector<MshrWaiter> out = std::move(entries_.at(line));
    entries_.erase(line);
    return out;
  }
  bool contains(u64 line) const { return entries_.contains(line); }
  int in_flight() const { return static_cast<int>(entries_.size()); }
  void clear() { entries_.clear(); }

  /// Mshr::write_state's layout: lines sorted, waiters in arrival order.
  u64 state_hash() const {
    Hasher h;
    h.put_tag("MSHR");
    std::vector<u64> lines;
    for (const auto& [line, waiters] : entries_) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    h.put_u64(lines.size());
    for (u64 line : lines) {
      h.put_u64(line);
      h.put_u64(entries_.at(line).size());
      for (const MshrWaiter& w : entries_.at(line)) {
        h.put_i32(w.sm);
        h.put_i32(w.warp);
        h.put_i32(w.app);
      }
    }
    return h.digest();
  }

 private:
  int max_entries_;
  std::unordered_map<u64, std::vector<MshrWaiter>> entries_;
};

TEST(MshrTest, MatchesTheHashMapReference) {
  // Random allocate, merge, release and clear streams at both cache
  // levels' sizes, over line sets that collide in the table: every result,
  // fan-out order, occupancy and state hash must match the map.
  for (const int entries : {1, 3, 32, 128}) {
    SCOPED_TRACE(entries);
    Mshr m(entries);
    MapMshr ref(entries);
    Rng rng(static_cast<u64>(entries) + 17);
    const u64 lines = static_cast<u64>(entries) * 2 + 3;
    for (int step = 0; step < 30'000; ++step) {
      const u64 line = (rng.next_below(lines) << 7) ^ (rng.next_below(2) << 40);
      const u64 op = rng.next_below(100);
      if (op < 55) {
        const MshrWaiter w{static_cast<SmId>(rng.next_below(16)),
                           static_cast<WarpId>(rng.next_below(48)),
                           static_cast<AppId>(rng.next_below(kMaxApps))};
        ASSERT_EQ(m.allocate(line, w), ref.allocate(line, w));
      } else if (op < 99) {
        ASSERT_EQ(m.contains(line), ref.contains(line));
        if (!ref.contains(line)) continue;
        const std::vector<MshrWaiter> got = drain(m, line);
        const std::vector<MshrWaiter> want = ref.release(line);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].sm, want[i].sm);
          ASSERT_EQ(got[i].warp, want[i].warp);
          ASSERT_EQ(got[i].app, want[i].app);
        }
      } else {
        m.clear();
        ref.clear();
      }
      ASSERT_EQ(m.in_flight(), ref.in_flight());
      ASSERT_EQ(m.full(), ref.in_flight() >= entries);
      if (step % 61 == 0) {
        ASSERT_EQ(state_hash_of(m), ref.state_hash());
      }
    }
  }
}

TEST(MshrTest, EntryCountOutOfRangeIsAConfigError) {
  for (const int entries : {0, -1, 65535}) {
    try {
      Mshr m(entries);
      FAIL() << "built an MSHR with " << entries << " entries";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
    }
  }
}

}  // namespace
}  // namespace gpusim
