#include "noc/crossbar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "mem/request.hpp"

namespace gpusim {
namespace {

struct Packet {
  int dest = 0;
  int payload = 0;
  Cycle ready = 0;
};

class CrossbarTest : public ::testing::Test {
 protected:
  static constexpr int kSources = 4;
  static constexpr int kDests = 2;

  CrossbarTest()
      : channel_(kSources, kDests, /*latency=*/5, /*accepts=*/1,
                 /*depth=*/8, [](const Packet& p) { return p.dest; }) {
    for (int s = 0; s < kSources; ++s) {
      queues_.emplace_back(std::make_unique<BoundedQueue<Packet>>(16));
      sources_.push_back(queues_.back().get());
    }
  }

  CrossbarChannel<Packet> channel_;
  std::vector<std::unique_ptr<BoundedQueue<Packet>>> queues_;
  std::vector<BoundedQueue<Packet>*> sources_;
};

TEST_F(CrossbarTest, DeliversWithLatency) {
  queues_[0]->try_push({.dest = 1, .payload = 42, .ready = 0});
  channel_.transfer(10, sources_);
  auto& dq = channel_.dest_queue(1);
  ASSERT_EQ(dq.size(), 1u);
  EXPECT_EQ(dq.front().payload, 42);
  EXPECT_EQ(dq.front().ready, 15u);
}

TEST_F(CrossbarTest, OnePacketPerSourcePerCycle) {
  queues_[0]->try_push({.dest = 0});
  queues_[0]->try_push({.dest = 1});
  channel_.transfer(0, sources_);
  // Source 0 may feed only one destination per cycle.
  EXPECT_EQ(channel_.dest_queue(0).size() + channel_.dest_queue(1).size(),
            1u);
  channel_.transfer(1, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size() + channel_.dest_queue(1).size(),
            2u);
}

TEST_F(CrossbarTest, AcceptLimitPerDestination) {
  for (int s = 0; s < kSources; ++s) {
    queues_[s]->try_push({.dest = 0, .payload = s});
  }
  channel_.transfer(0, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 1u) << "1 accept per cycle";
  channel_.transfer(1, sources_);
  channel_.transfer(2, sources_);
  channel_.transfer(3, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 4u);
}

TEST_F(CrossbarTest, RoundRobinIsFairAcrossSources) {
  // All 4 sources permanently loaded toward dest 0; over many cycles each
  // must receive an equal share.
  std::map<int, int> delivered;
  for (Cycle now = 0; now < 400; ++now) {
    for (int s = 0; s < kSources; ++s) {
      if (queues_[s]->empty()) {
        queues_[s]->try_push({.dest = 0, .payload = s});
      }
    }
    channel_.transfer(now, sources_);
    auto& dq = channel_.dest_queue(0);
    while (!dq.empty()) ++delivered[dq.pop().payload];
  }
  for (int s = 0; s < kSources; ++s) {
    EXPECT_NEAR(delivered[s], 100, 2) << "source " << s;
  }
}

TEST_F(CrossbarTest, RespectsPacketReadyGate) {
  queues_[0]->try_push({.dest = 0, .payload = 1, .ready = 50});
  channel_.transfer(0, sources_);
  EXPECT_TRUE(channel_.dest_queue(0).empty());
  channel_.transfer(50, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 1u);
}

TEST_F(CrossbarTest, BackpressureWhenDestinationFull) {
  // Depth is 8; fill it and verify the 9th packet stays at the source.
  for (int i = 0; i < 9; ++i) queues_[0]->try_push({.dest = 0, .payload = i});
  for (Cycle now = 0; now < 20; ++now) channel_.transfer(now, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 8u);
  EXPECT_EQ(queues_[0]->size(), 1u);
  // Draining one slot lets it through.
  channel_.dest_queue(0).pop();
  channel_.transfer(100, sources_);
  EXPECT_EQ(channel_.dest_queue(0).size(), 8u);
  EXPECT_TRUE(queues_[0]->empty());
}

TEST_F(CrossbarTest, HeadOfLineBlocking) {
  // Head packet targets the full dest 0; a dest-1 packet behind it waits.
  for (int i = 0; i < 8; ++i) queues_[1]->try_push({.dest = 0});
  for (Cycle now = 0; now < 20; ++now) channel_.transfer(now, sources_);
  ASSERT_TRUE(channel_.dest_queue(0).full());
  queues_[0]->try_push({.dest = 0, .payload = 7});
  queues_[0]->try_push({.dest = 1, .payload = 8});
  channel_.transfer(100, sources_);
  EXPECT_TRUE(channel_.dest_queue(1).empty())
      << "dest-1 packet must wait behind the blocked head";
}

TEST_F(CrossbarTest, AllEmptyReflectsState) {
  EXPECT_TRUE(channel_.all_empty());
  queues_[2]->try_push({.dest = 1});
  channel_.transfer(0, sources_);
  EXPECT_FALSE(channel_.all_empty());
}

/// Drives a channel of MemRequestPackets routed by `dest` through a random
/// stream of injections and destination pops, folding every transfer's
/// accepted and blocked masks, every popped packet and periodic state
/// hashes into `h`.
void drive_random_channel(Hasher& h, int num_sources, int num_dests,
                          int accepts, u64 seed) {
  CrossbarChannel<MemRequestPacket> ch(
      num_sources, num_dests, /*latency=*/40, accepts, /*depth=*/8,
      [](const MemRequestPacket& p) { return p.dest; });
  std::vector<std::unique_ptr<BoundedQueue<MemRequestPacket>>> queues;
  std::vector<BoundedQueue<MemRequestPacket>*> sources;
  for (int s = 0; s < num_sources; ++s) {
    queues.push_back(std::make_unique<BoundedQueue<MemRequestPacket>>(8));
    sources.push_back(queues.back().get());
  }
  Rng rng(seed);
  for (Cycle now = 0; now < 4'000; ++now) {
    for (int s = 0; s < num_sources; ++s) {
      if (rng.next_double() >= 0.35) continue;
      MemRequestPacket p;
      p.line_addr = rng.next_u64() >> 16;
      p.sm = s;
      // Half the traffic converges on destination 0, so ports contend.
      p.dest = static_cast<PartitionId>(
          rng.next_below(2) == 0 ? 0 : rng.next_below(num_dests));
      p.ready = now + rng.next_below(3);
      sources[s]->try_push(p);
    }
    u64 blocked = 0;
    h.put_u64(ch.transfer(now, sources, &blocked));
    h.put_u64(blocked);
    for (int d = 0; d < num_dests; ++d) {
      auto& dq = ch.dest_queue(d);
      if (!dq.empty() && dq.front().ready <= now && rng.next_below(3) != 0) {
        h.put_u64(dq.pop().line_addr);
      }
    }
    if (now % 100 == 0) ch.hash(h);
  }
  ch.hash(h);
}

TEST(CrossbarStateTest, SerializedStateIsPinned) {
  // Recorded with the dests x sources probe loop: any arbitration must
  // accept the same packets in the same order and leave the same
  // round-robin pointers, in both directions and at 1 and 2 accepts.
  Hasher h;
  for (const int accepts : {1, 2}) {
    drive_random_channel(h, 16, 6, accepts, 11 + accepts);
    drive_random_channel(h, 6, 16, accepts, 23 + accepts);
  }
  EXPECT_EQ(h.digest(), 0x88E2DE632209EB78ULL);
}

/// The dests x sources probe loop CrossbarChannel::transfer ran before its
/// candidate masks, kept as the arbitration reference: destination d probes
/// sources (rr[d] + k) % n for k = 0, 1, ..., n - 1, and an accept moves
/// rr[d] while k keeps counting.
class ProbeLoopReference {
 public:
  ProbeLoopReference(int num_dests, Cycle latency, int accepts, int depth,
                     std::vector<int> rr)
      : latency_(latency), accepts_(accepts), rr_(std::move(rr)) {
    for (int d = 0; d < num_dests; ++d) dest_queues_.emplace_back(depth);
  }

  u64 transfer(Cycle now,
               std::vector<BoundedQueue<MemRequestPacket>*>& sources,
               u64* blocked_out) {
    const int n = static_cast<int>(sources.size());
    u64 ready = 0;
    for (int s = 0; s < n; ++s) {
      if (!sources[s]->empty() && sources[s]->front().ready <= now) {
        ready |= u64{1} << s;
      }
    }
    u64 accepted_dests = 0;
    for (int d = 0; d < static_cast<int>(dest_queues_.size()); ++d) {
      BoundedQueue<MemRequestPacket>& dq = dest_queues_[d];
      if (dq.full()) continue;
      int accepted = 0;
      for (int k = 0; k < n && accepted < accepts_; ++k) {
        const int s = (rr_[d] + k) % n;
        if (!((ready >> s) & 1)) continue;
        if (sources[s]->front().dest != d) continue;
        if (dq.full()) break;
        MemRequestPacket p = sources[s]->pop();
        p.ready = now + latency_;
        dq.try_push(p);
        ready &= ~(u64{1} << s);
        ++accepted;
        rr_[d] = (s + 1) % n;
        accepted_dests |= u64{1} << d;
      }
    }
    *blocked_out = ready;
    return accepted_dests;
  }

  BoundedQueue<MemRequestPacket>& dest_queue(int d) { return dest_queues_[d]; }

  /// Same layout as CrossbarChannel::write_state.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("XBAR");
    for (const auto& q : dest_queues_) q.write_state(s);
    for (int v : rr_) s.put_i32(v);
  }

 private:
  Cycle latency_;
  int accepts_;
  std::vector<int> rr_;
  std::vector<BoundedQueue<MemRequestPacket>> dest_queues_;
};

TEST(CrossbarStateTest, MatchesTheProbeLoopReference) {
  // Random port counts up to the 64-port cap, random round-robin pointers,
  // shallow destination buffers (back-pressure) and 1 or 2 accepts per
  // cycle: every transfer must accept the same packets, report the same
  // masks and leave the same queues and pointers as the probe loop.
  Rng rng(64);
  for (int trial = 0; trial < 120; ++trial) {
    const int num_sources =
        trial % 5 == 0 ? 64 : 1 + static_cast<int>(rng.next_below(64));
    const int num_dests =
        trial % 7 == 0 ? 64 : 1 + static_cast<int>(rng.next_below(64));
    const int accepts = 1 + static_cast<int>(trial % 2);
    const int depth = 1 + static_cast<int>(rng.next_below(4));
    SCOPED_TRACE(std::to_string(num_sources) + " sources, " +
                 std::to_string(num_dests) + " dests, " +
                 std::to_string(accepts) + " accepts, depth " +
                 std::to_string(depth));
    CrossbarChannel<MemRequestPacket> ch(
        num_sources, num_dests, /*latency=*/3, accepts, depth,
        [](const MemRequestPacket& p) { return p.dest; });
    std::vector<int> rr(num_dests);
    StateWriter w;
    w.put_tag("XBAR");
    for (int d = 0; d < num_dests; ++d) w.put_u64(0);
    for (int& v : rr) {
      v = static_cast<int>(rng.next_below(num_sources));
      w.put_i32(v);
    }
    StateReader r(w.bytes());
    ch.load(r);
    ProbeLoopReference ref(num_dests, 3, accepts, depth, rr);

    std::vector<std::unique_ptr<BoundedQueue<MemRequestPacket>>> owned;
    std::vector<BoundedQueue<MemRequestPacket>*> src;
    std::vector<BoundedQueue<MemRequestPacket>*> ref_src;
    for (int s = 0; s < 2 * num_sources; ++s) {
      owned.push_back(std::make_unique<BoundedQueue<MemRequestPacket>>(4));
      (s < num_sources ? src : ref_src).push_back(owned.back().get());
    }
    // Few destinations in play per trial, so ports contend.
    const int hot = 1 + static_cast<int>(rng.next_below(3));
    for (Cycle now = 0; now < 150; ++now) {
      for (int s = 0; s < num_sources; ++s) {
        if (rng.next_double() >= 0.5) continue;
        MemRequestPacket p;
        p.line_addr = rng.next_u64();
        p.dest = static_cast<PartitionId>(
            rng.next_below(static_cast<u64>(std::min(hot, num_dests))));
        if (rng.next_below(4) == 0) {
          p.dest = static_cast<PartitionId>(rng.next_below(num_dests));
        }
        p.ready = now + rng.next_below(3);
        src[s]->try_push(p);
        ref_src[s]->try_push(p);
      }
      u64 blocked = 0;
      u64 ref_blocked = 0;
      ASSERT_EQ(ch.transfer(now, src, &blocked),
                ref.transfer(now, ref_src, &ref_blocked))
          << "cycle " << now;
      ASSERT_EQ(blocked, ref_blocked) << "cycle " << now;
      ASSERT_EQ(state_hash_of(ch), state_hash_of(ref)) << "cycle " << now;
      for (int d = 0; d < num_dests; ++d) {
        if (!ch.dest_queue(d).empty() && rng.next_below(3) == 0) {
          ch.dest_queue(d).pop();
          ref.dest_queue(d).pop();
        }
      }
    }
  }
}

TEST(CrossbarStateTest, PacketToANonexistentPortIsAnInvariantError) {
  CrossbarChannel<MemRequestPacket> ch(
      2, 3, /*latency=*/1, /*accepts=*/1, /*depth=*/4,
      [](const MemRequestPacket& p) { return p.dest; });
  BoundedQueue<MemRequestPacket> a(4);
  BoundedQueue<MemRequestPacket> b(4);
  std::vector<BoundedQueue<MemRequestPacket>*> sources{&a, &b};
  for (const PartitionId bad : {PartitionId{3}, PartitionId{-1}}) {
    MemRequestPacket p;
    p.dest = bad;
    b.try_push(p);
    try {
      ch.transfer(0, sources);
      FAIL() << "routed a packet to port " << bad;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kInvariant) << e.what();
    }
    b.clear();
  }
}

TEST(CrossbarStateTest, RejectsMoreThan64PortsPerSide) {
  const auto route = [](const MemRequestPacket& p) { return p.dest; };
  for (const auto& [sources, dests] : {std::pair{65, 6}, std::pair{16, 65}}) {
    try {
      CrossbarChannel<MemRequestPacket> ch(sources, dests, 1, 1, 4, route);
      FAIL() << sources << " x " << dests << " channel was built";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
    }
  }
}

}  // namespace
}  // namespace gpusim
