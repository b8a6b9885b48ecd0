#include "cache/mshr.hpp"

#include <gtest/gtest.h>

#include "common/sim_error.hpp"

namespace gpusim {
namespace {

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
  const auto waiters = m.release(100);
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
  m.release(1);
  EXPECT_FALSE(m.full());
  EXPECT_EQ(m.allocate(3, {}), Mshr::AllocResult::kNewMiss);
}

TEST(MshrTest, ReleaseFreesEntryForReuse) {
  Mshr m(1);
  m.allocate(7, {1, 2, 0});
  m.release(7);
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
      m.release(line);
      FAIL() << "released untracked line " << line;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
    }
  }
  EXPECT_TRUE(m.contains(100));
  EXPECT_EQ(m.release(100).size(), 1u);
  EXPECT_THROW(m.release(100), SimError) << "second completion of one line";
}

TEST(MshrTest, ManyWaitersOnOneLine) {
  Mshr m(2);
  m.allocate(42, {0, 0, 0});
  for (int i = 1; i < 32; ++i) {
    EXPECT_EQ(m.allocate(42, {0, i, 0}), Mshr::AllocResult::kMerged);
  }
  EXPECT_EQ(m.release(42).size(), 32u);
}

}  // namespace
}  // namespace gpusim
