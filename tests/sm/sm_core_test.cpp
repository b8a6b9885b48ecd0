#include "sm/sm_core.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "gpu/app_runtime.hpp"

namespace gpusim {
namespace {

KernelProfile compute_profile() {
  KernelProfile p;
  p.name = "compute";
  p.abbr = "CP";
  p.mem_fraction = 0.0001;  // essentially pure compute
  p.txns_per_mem_instr = 1;
  p.seq_locality = 1.0;
  p.working_set_bytes = 16 << 20;
  p.warps_per_block = 4;
  p.instrs_per_warp = 200;
  p.blocks_total = 1000;
  return p;
}

KernelProfile memory_profile() {
  KernelProfile p = compute_profile();
  p.abbr = "MM";
  p.mem_fraction = 0.5;
  return p;
}

class SmCoreTest : public ::testing::Test {
 protected:
  GpuConfig cfg_;
  AddressMap map_{cfg_};
};

TEST_F(SmCoreTest, UnassignedSmIdles) {
  SmCore sm(cfg_, 0, map_);
  EXPECT_FALSE(sm.assigned());
  for (Cycle c = 0; c < 100; ++c) sm.cycle(c);
  EXPECT_EQ(sm.counters().instructions.total(), 0u);
  EXPECT_EQ(sm.counters().idle_cycles.total(), 100u);
  EXPECT_TRUE(sm.drained());
}

TEST_F(SmCoreTest, ComputeKernelIssuesEveryCycle) {
  AppRuntime rt(compute_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.app(), 0);
  for (Cycle c = 0; c < 1000; ++c) sm.cycle(c);
  // IPC ~1 modulo rare memory instructions.
  EXPECT_GT(sm.counters().instructions.total(), 980u);
}

TEST_F(SmCoreTest, OccupancyRespectsWarpAndBlockLimits) {
  KernelProfile p = compute_profile();
  p.warps_per_block = 10;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  // 48 warp contexts / 10 per block = 4 blocks (max_blocks_per_sm is 8).
  EXPECT_EQ(sm.active_blocks(), 4);
  EXPECT_EQ(sm.live_warps(), 40);
}

TEST_F(SmCoreTest, ProfileOccupancyCapHonoured) {
  KernelProfile p = compute_profile();
  p.warps_per_block = 4;
  p.max_concurrent_blocks = 2;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  EXPECT_EQ(sm.active_blocks(), 2);
  EXPECT_EQ(sm.live_warps(), 8);
}

TEST_F(SmCoreTest, BlocksCompleteAndRefill) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 50;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  for (Cycle c = 0; c < 5000; ++c) sm.cycle(c);
  EXPECT_GT(rt.blocks_completed(), 10u);
  EXPECT_GT(sm.active_blocks(), 0) << "refill keeps the SM occupied";
}

TEST_F(SmCoreTest, MemoryInstructionsEmitRequests) {
  AppRuntime rt(memory_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  int packets = 0;
  for (Cycle c = 0; c < 500; ++c) {
    sm.cycle(c);
    while (!sm.out_queue().empty()) {
      const MemRequestPacket pkt = sm.out_queue().pop();
      EXPECT_EQ(pkt.app, 0);
      EXPECT_EQ(pkt.sm, 0);
      EXPECT_GE(pkt.dest, 0);
      EXPECT_LT(pkt.dest, cfg_.num_partitions);
      ++packets;
    }
  }
  EXPECT_GT(packets, 0);
  EXPECT_GT(sm.counters().mem_instructions.total(), 0u);
}

TEST_F(SmCoreTest, WarpsBlockUntilResponses) {
  KernelProfile p = memory_profile();
  p.warps_per_block = 2;
  p.max_concurrent_blocks = 1;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  // Run without delivering responses: all warps end up waiting on memory,
  // and the SM records memory-stall cycles (the alpha numerator).
  std::vector<MemRequestPacket> pending;
  for (Cycle c = 0; c < 2000; ++c) {
    sm.cycle(c);
    while (!sm.out_queue().empty()) pending.push_back(sm.out_queue().pop());
  }
  EXPECT_GT(sm.counters().mem_stall_cycles.total(), 1500u);
  const u64 instrs_stalled = sm.counters().instructions.total();

  // Deliver everything; the warps resume.
  Cycle now = 2000;
  for (const auto& pkt : pending) {
    MemResponsePacket resp;
    resp.line_addr = pkt.line_addr;
    resp.app = pkt.app;
    resp.sm = pkt.sm;
    resp.warp = pkt.warp;
    sm.receive(resp);
  }
  for (; now < 2100; ++now) {
    sm.cycle(now);
    while (!sm.out_queue().empty()) sm.out_queue().pop();
  }
  EXPECT_GT(sm.counters().instructions.total(), instrs_stalled);
}

TEST_F(SmCoreTest, L1HitsResolveLocally) {
  // Two warps touching the same hot line: the second access is an L1 hit
  // (after the response fills the line).
  KernelProfile p = memory_profile();
  p.hot_fraction = 0.999;
  p.hot_set_bytes = 128;  // a single line: everything hits after one fill
  p.warps_per_block = 4;
  p.max_concurrent_blocks = 1;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  Cycle now = 0;
  for (; now < 3000; ++now) {
    sm.cycle(now);
    while (!sm.out_queue().empty()) {
      const MemRequestPacket pkt = sm.out_queue().pop();
      MemResponsePacket resp;
      resp.line_addr = pkt.line_addr;
      resp.app = pkt.app;
      resp.sm = pkt.sm;
      resp.warp = pkt.warp;
      sm.receive(resp);
    }
  }
  EXPECT_GT(sm.counters().l1_hits.total(), 100u);
}

TEST_F(SmCoreTest, DrainStopsNewBlocksAndEmpties) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 100;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  sm.start_drain();
  EXPECT_TRUE(sm.draining());
  Cycle c = 0;
  for (; c < 50000 && !sm.drained(); ++c) sm.cycle(c);
  EXPECT_TRUE(sm.drained());
  EXPECT_EQ(sm.active_blocks(), 0);
  sm.release();
  EXPECT_FALSE(sm.assigned());

  // Reassignment to another app works after release.
  AppRuntime rt2(memory_profile(), 1, 43);
  sm.assign(&rt2);
  EXPECT_EQ(sm.app(), 1);
  EXPECT_GT(sm.live_warps(), 0);
}

TEST_F(SmCoreTest, CancelDrainResumesFetching) {
  KernelProfile p = compute_profile();
  p.instrs_per_warp = 30;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  sm.start_drain();
  sm.cancel_drain();
  for (Cycle c = 0; c < 5000; ++c) sm.cycle(c);
  EXPECT_GT(sm.active_blocks(), 0);
  EXPECT_GT(rt.blocks_completed(), 5u);
}

// Feeds one SM's requests back as responses a fixed latency later, with a
// hold switch that withholds every response (so the L1 MSHR fills up).
struct LoopbackNet {
  Cycle latency = 0;
  bool hold = false;
  std::vector<std::pair<Cycle, MemResponsePacket>> in_flight;  // FIFO
  std::vector<MemResponsePacket> held;

  void step(SmCore& sm, Cycle now) {
    std::size_t done = 0;
    while (done < in_flight.size() && in_flight[done].first <= now) {
      sm.receive(in_flight[done++].second);
    }
    in_flight.erase(in_flight.begin(), in_flight.begin() + done);
    sm.cycle(now);
    while (!sm.out_queue().empty()) {
      const MemRequestPacket pkt = sm.out_queue().pop();
      MemResponsePacket resp;
      resp.line_addr = pkt.line_addr;
      resp.app = pkt.app;
      resp.sm = pkt.sm;
      resp.warp = pkt.warp;
      if (hold) {
        held.push_back(resp);
      } else {
        in_flight.push_back({now + latency, resp});
      }
    }
  }

  void release_held(Cycle now) {
    for (const MemResponsePacket& resp : held) {
      in_flight.push_back({now + latency, resp});
    }
    held.clear();
  }

  std::size_t outstanding() const { return in_flight.size() + held.size(); }
};

TEST_F(SmCoreTest, SerializedStateIsPinned) {
  // One SM's scripted life — assignment, compute and memory issue,
  // responses, L1 hits, a full L1 MSHR, drain, release, reassignment and a
  // save/load round trip — with its state hash and occupancy queries
  // folded into one digest after every cycle.  The constant was recorded
  // from the scan-based warp scheduler; a warp pick, counter or serialized
  // byte that moves changes it.
  GpuConfig cfg;
  cfg.l1_mshr_entries = 4;
  const AddressMap map(cfg);
  KernelProfile a = memory_profile();
  a.hot_fraction = 0.5;
  a.hot_set_bytes = 8 * 128;
  a.instrs_per_warp = 24;
  a.max_concurrent_blocks = 3;
  KernelProfile b = memory_profile();
  b.abbr = "MB";
  b.mem_fraction = 0.1;
  b.warps_per_block = 6;  // 8 blocks fill all 48 warp contexts
  b.txns_per_mem_instr = 2;
  b.hot_fraction = 0.8;
  b.hot_set_bytes = 4 * 128;
  b.instrs_per_warp = 20;
  AppRuntime rt_a(a, 0, 42);
  AppRuntime rt_b(b, 1, 43);

  u64 digest = 0;
  const auto fold = [&digest](const SmCore& sm) {
    Hasher h;
    sm.hash(h);
    h.put_i32(sm.waiting_warps());
    h.put_i32(sm.live_warps());
    h.put_i32(sm.active_blocks());
    h.put_bool(sm.drained());
    h.put_u64(digest);
    digest = h.digest();
  };

  SmCore sm(cfg, 0, map);
  LoopbackNet net;
  net.latency = 80;
  Cycle now = 0;
  const auto run = [&](SmCore& core, Cycle cycles) {
    for (const Cycle end = now + cycles; now < end; ++now) {
      net.step(core, now);
      fold(core);
      ASSERT_LE(net.outstanding(),
                static_cast<std::size_t>(cfg.l1_mshr_entries))
          << "one request per MSHR entry at most";
    }
  };

  sm.assign(&rt_a, now);
  fold(sm);
  run(sm, 1500);
  net.hold = true;  // the MSHR fills and the SM stalls on its next miss
  run(sm, 800);
  net.hold = false;
  net.release_held(now);
  run(sm, 1500);
  EXPECT_GT(sm.counters().l1_hits.total(), 0u);
  EXPECT_GT(rt_a.blocks_completed(), 0u);

  sm.start_drain();
  for (int i = 0; i < 50'000 && !sm.drained(); ++i) run(sm, 1);
  ASSERT_TRUE(sm.drained());
  sm.release();
  fold(sm);
  sm.assign(&rt_b, now);
  fold(sm);
  run(sm, 2500);

  StateWriter w;
  sm.save(w);
  SmCore restored(cfg, 0, map);
  StateReader r(w.bytes());
  restored.load(r, &rt_b);
  EXPECT_EQ(state_hash_of(restored), state_hash_of(sm));
  fold(restored);
  run(restored, 2500);
  EXPECT_GT(rt_b.blocks_completed(), 0u);

  EXPECT_EQ(digest, 0xe878765743faea42ull) << std::hex << digest;
}

TEST_F(SmCoreTest, QuietCycleOnlyAccruesTheStall) {
  // quiet_at(now) promises the activity engine that every cycle before
  // the next local event, with no response delivered, changes nothing
  // skip_cycles(1) would not.  Hold it to that on two clones after every
  // quiet cycle of a run whose 2-entry L1 MSHR is usually full, so
  // transactions to hot lines the L1 holds queue up behind misses waiting
  // for an entry.
  GpuConfig cfg;
  cfg.l1_mshr_entries = 2;
  const AddressMap map(cfg);
  KernelProfile p = memory_profile();
  p.txns_per_mem_instr = 2;
  p.hot_fraction = 0.9;
  p.hot_set_bytes = 4 * 128;
  AppRuntime rt(p, 0, 42);
  SmCore sm(cfg, 0, map);
  sm.assign(&rt);
  LoopbackNet net;
  net.latency = 60;
  int quiet = 0;
  for (Cycle now = 0; now < 20'000; ++now) {
    net.step(sm, now);
    if (!sm.quiet_at(now) || sm.next_local_event() <= now + 1) continue;
    ++quiet;
    StateWriter w;
    sm.save(w);
    AppRuntime rt_cycled = rt;
    AppRuntime rt_skipped = rt;
    SmCore cycled(cfg, 0, map);
    SmCore skipped(cfg, 0, map);
    StateReader r1(w.bytes());
    cycled.load(r1, &rt_cycled);
    StateReader r2(w.bytes());
    skipped.load(r2, &rt_skipped);
    cycled.cycle(now + 1);
    skipped.skip_cycles(1);
    ASSERT_EQ(state_hash_of(cycled), state_hash_of(skipped))
        << "quiet at cycle " << now;
  }
  EXPECT_GT(quiet, 1000);
}

TEST_F(SmCoreTest, LoadRejectsAReadyCountTheWarpStatesDisagreeWith) {
  // load() rebuilds the ready and waiting masks from the warp states; the
  // serialized ready-warp count must match what they say.
  AppRuntime rt(memory_profile(), 0, 42);
  SmCore sm(cfg_, 0, map_);
  sm.assign(&rt);
  for (Cycle c = 0; c < 20; ++c) sm.cycle(c);
  StateWriter w;
  sm.save(w);
  std::vector<u8> bytes = w.bytes();
  // "SMCR", draining_ (1 byte), last_issued_ (4 bytes), then the count.
  constexpr std::size_t kReadyCount = 4 + 1 + 4;
  for (const int delta : {-1, 1}) {
    SCOPED_TRACE(delta);
    std::vector<u8> corrupt = bytes;
    corrupt[kReadyCount] = static_cast<u8>(corrupt[kReadyCount] + delta);
    SmCore restored(cfg_, 0, map_);
    StateReader r(corrupt);
    try {
      restored.load(r, &rt);
      FAIL() << "the corrupt ready-warp count was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
    }
  }
  SmCore restored(cfg_, 0, map_);
  StateReader r(bytes);
  restored.load(r, &rt);
  EXPECT_EQ(state_hash_of(restored), state_hash_of(sm));
}

TEST_F(SmCoreTest, InstructionSinkReceivesPerAppCounts) {
  PerAppCounter sink;
  AppRuntime rt(compute_profile(), 2, 42);
  SmCore sm(cfg_, 0, map_);
  sm.set_instr_sink(&sink);
  sm.assign(&rt);
  for (Cycle c = 0; c < 100; ++c) sm.cycle(c);
  EXPECT_EQ(sink.total(2), sm.counters().instructions.total());
}

}  // namespace
}  // namespace gpusim
