#include "common/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>

namespace gpusim {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueTest, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_FALSE(q.full());
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueueTest, MoveOnlyFriendly) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(42)));
  auto p = q.pop();
  EXPECT_EQ(*p, 42);
}

TEST(BoundedQueueTest, ClearEmpties) {
  BoundedQueue<std::string> q(3);
  q.try_push("a");
  q.try_push("b");
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 3u);
}

TEST(BoundedQueueTest, IterationVisitsInOrder) {
  BoundedQueue<int> q(4);
  for (int i = 10; i < 14; ++i) q.try_push(i);
  int expect = 10;
  for (int v : q) EXPECT_EQ(v, expect++);
}

TEST(BoundedQueueTest, RingGrowsAcrossTheWrapInFifoOrder) {
  // Interleaved pushes and pops keep the ring's head moving, so each
  // doubling happens with the contents wrapped around the buffer's end.
  Ring<int> ring;
  std::deque<int> model;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) {
      ring.push_back(next);
      model.push_back(next++);
    }
    for (int i = 0; i < round % 5 && !model.empty(); ++i) {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
    std::size_t i = 0;
    for (int v : ring) ASSERT_EQ(v, model[i++]);
  }
}

}  // namespace
}  // namespace gpusim
