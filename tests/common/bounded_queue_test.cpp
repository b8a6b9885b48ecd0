#include "common/bounded_queue.hpp"

#include <gtest/gtest.h>

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

TEST(BoundedQueueTest, ExtractFromMiddle) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) q.try_push(i);
  auto it = q.begin();
  std::advance(it, 2);
  EXPECT_EQ(q.extract(it), 2);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop(), 0);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
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

}  // namespace
}  // namespace gpusim
