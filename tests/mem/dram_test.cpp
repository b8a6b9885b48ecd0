#include "mem/dram.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {
namespace {

/// Runs the controller until `count` requests complete or `max` cycles pass;
/// returns the completion cycles in order.
std::vector<Cycle> run_until_complete(MemoryController& mc, Cycle start,
                                      int count, Cycle max = 100000) {
  std::vector<Cycle> completions;
  std::vector<DramCmd> done;
  for (Cycle now = start; now < start + max; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (std::size_t i = 0; i < done.size(); ++i) completions.push_back(now);
    if (static_cast<int>(completions.size()) >= count) break;
  }
  return completions;
}

DramCmd cmd(AppId app, int bank, u64 row, Cycle enq = 0) {
  DramCmd c;
  c.app = app;
  c.bank = bank;
  c.row = row;
  c.enqueued = enq;
  return c;
}

TEST(DramTest, ClosedBankTimingIsActivatePlusCasPlusBurst) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  ASSERT_TRUE(mc.try_enqueue(cmd(0, 3, 7)));
  const auto completions = run_until_complete(mc, 0, 1);
  ASSERT_EQ(completions.size(), 1u);
  // Issue at cycle 0, tRCD(18) prep, +1 cycle prep-retire, tCL(18) lead,
  // tBurst(6): completes within a small window of the sum.
  const Cycle expected = cfg.t_rcd() + cfg.t_cl() + cfg.t_burst();
  EXPECT_GE(completions[0], expected);
  EXPECT_LE(completions[0], expected + 4);
}

TEST(DramTest, RowHitFasterThanRowMiss) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  mc.try_enqueue(cmd(0, 0, 5));
  auto first = run_until_complete(mc, 0, 1);
  ASSERT_EQ(first.size(), 1u);
  const Cycle t0 = first[0];

  // Row hit: same bank, same row.
  mc.try_enqueue(cmd(0, 0, 5, t0 + 1));
  auto hit = run_until_complete(mc, t0 + 1, 1);
  const Cycle hit_latency = hit[0] - (t0 + 1);

  // Row miss: same bank, other row (needs PRE + ACT).
  mc.try_enqueue(cmd(0, 0, 9, hit[0] + 1));
  auto miss = run_until_complete(mc, hit[0] + 1, 1);
  const Cycle miss_latency = miss[0] - (hit[0] + 1);

  EXPECT_LT(hit_latency, miss_latency);
  EXPECT_GE(miss_latency - hit_latency, cfg.t_rp());
  EXPECT_EQ(mc.counters().row_hits.total(0), 1u);
  EXPECT_EQ(mc.counters().row_misses.total(0), 2u);
}

TEST(DramTest, FrFcfsPrefersRowHitOverOlderMiss) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // Open row 5 on bank 0.
  mc.try_enqueue(cmd(0, 0, 5));
  run_until_complete(mc, 0, 1);

  // Older request: app 1, row miss on bank 0.  Newer: app 0 row hit.
  mc.try_enqueue(cmd(1, 0, 9, 1000));
  mc.try_enqueue(cmd(0, 0, 5, 1001));
  std::vector<DramCmd> done;
  std::vector<AppId> order;
  for (Cycle now = 1002; now < 2000 && order.size() < 2; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (const auto& d : done) order.push_back(d.app);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0) << "row hit must be served first";
  EXPECT_EQ(order[1], 1);
}

TEST(DramTest, PriorityAppWinsTheIssueSlot) {
  // Both requests target the same bank (service serialises), the
  // non-priority one is older: with a priority app set, its request must
  // be issued — and therefore served — first.
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  mc.set_priority_app(1);
  mc.try_enqueue(cmd(0, 0, 5, 0));  // older, non-priority
  mc.try_enqueue(cmd(1, 0, 9, 1));  // newer, priority app
  std::vector<DramCmd> done;
  std::vector<AppId> order;
  for (Cycle now = 2; now < 3000 && order.size() < 2; ++now) {
    done.clear();
    mc.cycle(now, done);
    for (const auto& d : done) order.push_back(d.app);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "priority request issued first";
  EXPECT_EQ(mc.counters().priority_served.total(1), 1u);
}

TEST(DramTest, QueueCapacityEnforced) {
  GpuConfig cfg;
  cfg.dram_queue_capacity = 4;
  MemoryController mc(cfg, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(mc.try_enqueue(cmd(0, i, 1)));
  }
  EXPECT_TRUE(mc.queue_full());
  EXPECT_FALSE(mc.try_enqueue(cmd(0, 5, 1)));
  EXPECT_EQ(mc.total_outstanding(), 4);
}

TEST(DramTest, ExtraRowBufferMissDetection) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // App 0 opens row 5 in bank 0; app 1 then opens row 9 in bank 0 (closing
  // app 0's row); app 0 returns to row 5 -> one ERBMiss for app 0 (Eq. 10).
  mc.try_enqueue(cmd(0, 0, 5));
  run_until_complete(mc, 0, 1);
  mc.try_enqueue(cmd(1, 0, 9, 500));
  run_until_complete(mc, 500, 1);
  mc.try_enqueue(cmd(0, 0, 5, 1500));
  run_until_complete(mc, 1500, 1);
  EXPECT_EQ(mc.counters().erb_miss.total(0), 1u);
  EXPECT_EQ(mc.counters().erb_miss.total(1), 0u);
}

TEST(DramTest, NoErbMissWhenOwnStreamChangesRows) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  // The same app walking different rows is not interference.
  for (u64 row = 0; row < 5; ++row) {
    mc.try_enqueue(cmd(0, 0, row, row * 500));
    run_until_complete(mc, row * 500, 1);
  }
  EXPECT_EQ(mc.counters().erb_miss.total(0), 0u);
}

TEST(DramTest, SaturatedThroughputMatchesEfficiencyCap) {
  // At saturation, useful throughput depends on the row-miss ratio: a
  // row hit occupies the bus for t_burst + gap; a row miss additionally
  // pays the miss bubble.  Sequential traffic approaches the hit cap,
  // random traffic the miss cap.
  GpuConfig cfg;
  Rng rng(3);
  const Cycle cycles = 50000;
  auto saturate = [&](bool sequential) {
    MemoryController mc(cfg, 1);
    u64 served = 0;
    u64 seq = 0;
    std::vector<DramCmd> done;
    for (Cycle now = 0; now < cycles; ++now) {
      while (!mc.queue_full()) {
        if (sequential) {
          const u64 line = seq++;
          mc.try_enqueue(
              cmd(0, static_cast<int>((line / 16) % 16), line / 256, now));
        } else {
          mc.try_enqueue(cmd(0, static_cast<int>(rng.next_below(16)),
                             rng.next_below(1 << 20), now));
        }
      }
      done.clear();
      mc.cycle(now, done);
      served += done.size();
    }
    return served;
  };
  const double hit_cap = static_cast<double>(cycles) /
                         (cfg.t_burst() + cfg.t_bus_gap());
  const double miss_cap =
      static_cast<double>(cycles) /
      (cfg.t_burst() + cfg.t_bus_gap() + cfg.t_miss_bubble());
  const u64 seq_served = saturate(true);
  const u64 rnd_served = saturate(false);
  EXPECT_GT(seq_served, hit_cap * 0.90);
  EXPECT_LE(seq_served, hit_cap * 1.01);
  EXPECT_GT(rnd_served, miss_cap * 0.92);
  EXPECT_LE(rnd_served, miss_cap * 1.01);
}

TEST(DramTest, BandwidthDecompositionCoversAllCycles) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  Rng rng(5);
  std::vector<DramCmd> done;
  const Cycle cycles = 30000;
  for (Cycle now = 0; now < cycles; ++now) {
    if (rng.next_bool(0.05)) {
      mc.try_enqueue(cmd(static_cast<AppId>(rng.next_below(2)),
                         static_cast<int>(rng.next_below(16)),
                         rng.next_below(1024), now));
    }
    done.clear();
    mc.cycle(now, done);
  }
  const McCounters& c = mc.counters();
  const u64 accounted = c.bus_data_cycles.grand_total() +
                        c.wasted_cycles.total() + c.idle_cycles.total();
  // Lump accounting can run slightly ahead/behind at the edges.
  EXPECT_NEAR(static_cast<double>(accounted), static_cast<double>(cycles),
              cycles * 0.02);
}

TEST(DramTest, BlpCountersTrackOutstandingWork) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  // Four banks' worth of requests for app 0, nothing for app 1.
  for (int b = 0; b < 4; ++b) mc.try_enqueue(cmd(0, b, 1));
  std::vector<DramCmd> done;
  for (Cycle now = 0; now < 10; ++now) {
    done.clear();
    mc.cycle(now, done);
  }
  const McCounters& c = mc.counters();
  EXPECT_GT(c.blp_time.total(0), 0u);
  EXPECT_EQ(c.blp_time.total(1), 0u);
  EXPECT_GT(c.blp_occupancy_int.total(0), c.blp_access_int.total(0))
      << "queued-but-not-executing banks count toward BLP only";
  // Average BLP over the window is at most the bank count.
  EXPECT_LE(c.blp_occupancy_int.total(0),
            c.blp_time.total(0) * static_cast<u64>(cfg.banks_per_mc));
}

TEST(DramTest, ServiceTimeAccumulatesPerApp) {
  GpuConfig cfg;
  MemoryController mc(cfg, 2);
  mc.try_enqueue(cmd(0, 0, 1));
  mc.try_enqueue(cmd(1, 8, 2));
  run_until_complete(mc, 0, 2);
  EXPECT_EQ(mc.counters().requests_served.total(0), 1u);
  EXPECT_EQ(mc.counters().requests_served.total(1), 1u);
  EXPECT_GT(mc.counters().bank_service_time.total(0), 0u);
  EXPECT_GT(mc.counters().bank_service_time.total(1), 0u);
}

TEST(DramTest, OutstandingReturnsToZeroAfterDrain) {
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  for (int i = 0; i < 10; ++i) {
    mc.try_enqueue(cmd(0, i % 16, i));
  }
  run_until_complete(mc, 0, 10);
  EXPECT_EQ(mc.total_outstanding(), 0);
  EXPECT_EQ(mc.queue_size(), 0);
  EXPECT_EQ(mc.bus_ready_size(), 0);
  EXPECT_EQ(mc.inflight_size(), 0);
  EXPECT_EQ(mc.preparing_banks(), 0);
}

class DramLocalitySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DramLocalitySweepTest, MoreLocalityNeverHurtsServiceRate) {
  // Property: raising the fraction of row-hit traffic cannot reduce served
  // throughput at fixed offered load.
  const double hit_fraction = GetParam();
  GpuConfig cfg;
  MemoryController mc(cfg, 1);
  Rng rng(9);
  u64 served = 0;
  u64 seq = 0;
  std::vector<DramCmd> done;
  const Cycle cycles = 40000;
  for (Cycle now = 0; now < cycles; ++now) {
    if (rng.next_bool(0.2) && !mc.queue_full()) {
      DramCmd c;
      c.app = 0;
      c.enqueued = now;
      if (rng.next_bool(hit_fraction)) {
        const u64 line = seq++;
        c.bank = static_cast<int>((line / 16) % 16);
        c.row = line / 256;
      } else {
        c.bank = static_cast<int>(rng.next_below(16));
        c.row = rng.next_below(1 << 20);
      }
      mc.try_enqueue(c);
    }
    done.clear();
    mc.cycle(now, done);
    served += done.size();
  }
  // At 0.2 req/cycle offered the system saturates; throughput must match
  // the locality-dependent efficiency cap: one request per
  // (t_burst + gap + miss_bubble * miss_fraction) cycles.
  const double per_req = (cfg.t_burst() + cfg.t_bus_gap()) +
                         cfg.t_miss_bubble() * (1.0 - hit_fraction);
  const double cap = static_cast<double>(cycles) / per_req;
  EXPECT_GT(served, cap * 0.80);
  EXPECT_LE(served, cap * 1.05);
}

INSTANTIATE_TEST_SUITE_P(HitFractions, DramLocalitySweepTest,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9, 1.0));

TEST(DramTest, SerializedStateIsPinned) {
  // Recorded with the linear FR-FCFS scan over a std::deque: any queue
  // layout must issue the same picks, complete the same commands and save
  // the queue in arrival order.
  Hasher h;
  for (const int capacity : {16, 64}) {
    GpuConfig cfg;
    cfg.dram_queue_capacity = capacity;
    MemoryController mc(cfg, 3);
    Rng rng(static_cast<u64>(capacity) + 5);
    std::vector<DramCmd> done;
    for (Cycle now = 0; now < 30'000; ++now) {
      if (now % 1'200 == 0) {
        const u64 p = rng.next_below(4);
        mc.set_priority_app(p == 3 ? kInvalidApp : static_cast<AppId>(p));
      }
      for (int k = 0; k < 2; ++k) {
        if (rng.next_double() >= 0.3) continue;
        DramCmd c;
        c.line_addr = rng.next_u64() >> 20;
        c.app = static_cast<AppId>(rng.next_below(3));
        c.bank = static_cast<int>(rng.next_below(2) == 0 ? rng.next_below(4)
                                                         : rng.next_below(16));
        c.row = rng.next_below(4);
        c.enqueued = now;
        h.put_bool(mc.try_enqueue(c));
      }
      done.clear();
      mc.cycle(now, done);
      for (const DramCmd& d : done) {
        h.put_u64(d.line_addr);
        h.put_u64(d.enqueued);
      }
      if (now % 500 == 0) mc.hash(h);
    }
    mc.hash(h);

    StateWriter w;
    mc.save(w);
    MemoryController restored(cfg, 3);
    StateReader r(w.bytes());
    restored.load(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(state_hash_of(restored), state_hash_of(mc));
  }
  EXPECT_EQ(h.digest(), 0x0D7A9B37F2557B5BULL);
}

/// The linear scan over the arrival-ordered queue that MemoryController
/// used before its per-bank index, kept as the FR-FCFS pick reference:
/// the oldest eligible row hit to a non-preparing bank, else the oldest
/// eligible command to a non-preparing bank, where a priority app with
/// anything queued makes only its commands eligible.
struct ScanBank {
  bool row_open = false;
  u64 open_row = 0;
  bool preparing = false;
};

std::optional<FrFcfsQueue::Pick> reference_pick(
    std::deque<DramCmd>& queue, const std::vector<ScanBank>& banks,
    AppId priority_app) {
  bool prio_active = false;
  for (const DramCmd& c : queue) prio_active |= c.app == priority_app;
  auto hit_pick = queue.end();
  auto oldest_pick = queue.end();
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (prio_active && it->app != priority_app) continue;
    const ScanBank& bank = banks[it->bank];
    if (bank.preparing) continue;
    if (bank.row_open && bank.open_row == it->row) {
      hit_pick = it;
      break;
    }
    if (oldest_pick == queue.end()) oldest_pick = it;
  }
  const auto pick = hit_pick != queue.end() ? hit_pick : oldest_pick;
  if (pick == queue.end()) return std::nullopt;
  const FrFcfsQueue::Pick out{*pick, hit_pick != queue.end()};
  queue.erase(pick);
  return out;
}

TEST(DramTest, FrFcfsIndexMatchesTheLinearScan) {
  // Random enqueues, row opens and closes, preparing banks and priority
  // flips: every pick must be the scan's pick, and the queue must stay in
  // the scan's arrival order.
  constexpr int kBanks = 16;
  for (u64 seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    FrFcfsQueue index(kBanks);
    std::deque<DramCmd> scan;
    std::vector<ScanBank> banks(kBanks);
    AppId priority = kInvalidApp;
    for (int step = 0; step < 20'000; ++step) {
      const u64 op = rng.next_below(20);
      if (op < 8) {
        if (scan.size() >= 64) continue;
        DramCmd c;
        c.line_addr = rng.next_u64() >> 24;
        c.app = static_cast<AppId>(rng.next_below(3));
        c.bank = static_cast<int>(rng.next_below(2) == 0
                                      ? rng.next_below(3)
                                      : rng.next_below(kBanks));
        c.row = rng.next_below(3);
        c.enqueued = static_cast<Cycle>(step);
        index.push(c);
        scan.push_back(c);
      } else if (op < 11) {
        const int b = static_cast<int>(rng.next_below(kBanks));
        banks[b].row_open = rng.next_below(4) != 0;
        banks[b].open_row = rng.next_below(3);
        index.set_open_row(b, banks[b].row_open, banks[b].open_row);
      } else if (op < 13) {
        banks[rng.next_below(kBanks)].preparing ^= true;
      } else if (op == 13) {
        const u64 p = rng.next_below(4);
        priority = p == 3 ? kInvalidApp : static_cast<AppId>(p);
      } else {
        u32 candidates = 0;
        AppId only_app = kInvalidApp;
        for (int b = 0; b < kBanks; ++b) {
          if (!banks[b].preparing) candidates |= 1u << b;
        }
        for (const DramCmd& c : scan) {
          if (c.app == priority) only_app = priority;
        }
        const auto got = index.pop_pick(candidates, only_app);
        const auto want = reference_pick(scan, banks, priority);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (!got) continue;
        ASSERT_EQ(got->cmd.line_addr, want->cmd.line_addr) << "step " << step;
        ASSERT_EQ(got->cmd.enqueued, want->cmd.enqueued) << "step " << step;
        ASSERT_EQ(got->row_hit, want->row_hit) << "step " << step;
      }
      ASSERT_EQ(index.size(), static_cast<int>(scan.size()));
      if (step % 97 == 0) {
        const std::vector<DramCmd> order = index.in_arrival_order();
        ASSERT_EQ(order.size(), scan.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          ASSERT_EQ(order[i].enqueued, scan[i].enqueued) << "step " << step;
        }
      }
    }
  }
}

TEST(DramTest, QuietExactlyWhenACycleOnlyAccrues) {
  // quiet_at(now) must hold exactly when cycle(now) changes nothing but the
  // per-cycle accruals skip_cycles() applies: a twin restored from the same
  // state and skipped one cycle hashes equal iff the controller was quiet.
  GpuConfig cfg;
  cfg.dram_queue_capacity = 24;
  MemoryController mc(cfg, 2);
  MemoryController twin(cfg, 2);
  Rng rng(99);
  std::vector<DramCmd> done;
  int quiet_cycles = 0;
  int live_cycles = 0;
  for (Cycle now = 0; now < 20'000; ++now) {
    if (now % 700 == 0) {
      const u64 p = rng.next_below(3);
      mc.set_priority_app(p == 2 ? kInvalidApp : static_cast<AppId>(p));
    }
    // Bursts separated by lulls, so the controller both saturates and
    // drains.
    if ((now / 2'000) % 2 == 0 && rng.next_double() < 0.4) {
      DramCmd c;
      c.line_addr = rng.next_u64() >> 24;
      c.app = static_cast<AppId>(rng.next_below(2));
      c.bank = static_cast<int>(rng.next_below(4));
      c.row = rng.next_below(3);
      c.enqueued = now;
      mc.try_enqueue(c);
    }
    StateWriter w;
    mc.save(w);
    StateReader r(w.bytes());
    twin.load(r);
    const bool quiet = mc.quiet_at(now);
    done.clear();
    mc.cycle(now, done);
    twin.skip_cycles(now, 1);
    ASSERT_EQ(quiet, state_hash_of(mc) == state_hash_of(twin))
        << "cycle " << now;
    (quiet ? quiet_cycles : live_cycles) += 1;
  }
  EXPECT_GT(quiet_cycles, 1'000);
  EXPECT_GT(live_cycles, 1'000);
}

}  // namespace
}  // namespace gpusim
