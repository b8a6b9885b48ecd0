#include "gpu/gpu.hpp"

#include <gtest/gtest.h>

#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

AppLaunch launch(const char* abbr, u64 seed = 42) {
  return AppLaunch{*find_app(abbr), seed};
}

TEST(EvenPartitionTest, SplitsEvenlyWithRemainderToFirstApps) {
  const auto p = even_partition(16, 2);
  ASSERT_EQ(p.size(), 16u);
  EXPECT_EQ(std::count(p.begin(), p.end(), 0), 8);
  EXPECT_EQ(std::count(p.begin(), p.end(), 1), 8);

  const auto q = even_partition(16, 3);
  EXPECT_EQ(std::count(q.begin(), q.end(), 0), 6);
  EXPECT_EQ(std::count(q.begin(), q.end(), 1), 5);
  EXPECT_EQ(std::count(q.begin(), q.end(), 2), 5);

  const auto r = even_partition(16, 4);
  for (AppId a = 0; a < 4; ++a) {
    EXPECT_EQ(std::count(r.begin(), r.end(), a), 4);
  }
}

TEST(GpuTest, CoRunMakesProgressForAllApps) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA"), launch("SA", 43)});
  gpu.set_partition(even_partition(16, 2));
  gpu.run(20000);
  EXPECT_GT(gpu.instructions().total(0), 1000u);
  EXPECT_GT(gpu.instructions().total(1), 1000u);
  EXPECT_EQ(gpu.now(), 20000u);
}

TEST(GpuTest, DeterministicAcrossIdenticalRuns) {
  GpuConfig cfg;
  auto run_once = [&] {
    Gpu gpu(cfg, {launch("SD"), launch("SA", 43)});
    gpu.set_partition(even_partition(16, 2));
    gpu.run(15000);
    return std::make_pair(gpu.instructions().total(0),
                          gpu.instructions().total(1));
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(GpuTest, SeedChangesExecution) {
  GpuConfig cfg;
  auto instrs = [&](u64 seed) {
    Gpu gpu(cfg, {launch("SD", seed)});
    gpu.set_partition(even_partition(16, 1));
    gpu.run(15000);
    return gpu.instructions().total(0);
  };
  EXPECT_NE(instrs(1), instrs(2));
}

TEST(GpuTest, PartitionAssignmentReflectsRequest) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA"), launch("SA", 43)});
  std::vector<AppId> want(16, 0);
  for (int s = 10; s < 16; ++s) want[s] = 1;
  gpu.set_partition(want);
  EXPECT_EQ(gpu.current_partition(), want);
  EXPECT_EQ(gpu.sms_assigned(0), 10);
  EXPECT_EQ(gpu.sms_assigned(1), 6);
  EXPECT_FALSE(gpu.migration_in_progress());
}

TEST(GpuTest, RepartitionDrainsThenMigrates) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA"), launch("SA", 43)});
  gpu.set_partition(even_partition(16, 2));
  gpu.run(5000);

  // Move 4 SMs from app 0 to app 1.
  std::vector<AppId> want(16, 1);
  for (int s = 0; s < 4; ++s) want[s] = 0;
  gpu.set_partition(want);
  EXPECT_TRUE(gpu.migration_in_progress());

  Cycle waited = 0;
  while (gpu.migration_in_progress() && waited < 2'000'000) {
    gpu.run(1000);
    waited += 1000;
  }
  EXPECT_FALSE(gpu.migration_in_progress()) << "drain must complete";
  EXPECT_EQ(gpu.current_partition(), want);
  EXPECT_EQ(gpu.sms_assigned(1), 12);

  // Both apps continue to execute after the migration.
  const u64 before0 = gpu.instructions().total(0);
  const u64 before1 = gpu.instructions().total(1);
  gpu.run(10000);
  EXPECT_GT(gpu.instructions().total(0), before0);
  EXPECT_GT(gpu.instructions().total(1), before1);
}

TEST(GpuTest, IdleSmsAllowedInPartition) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA")});
  std::vector<AppId> want(16, kInvalidApp);
  want[0] = 0;
  want[1] = 0;
  gpu.set_partition(want);
  gpu.run(5000);
  EXPECT_EQ(gpu.sms_assigned(0), 2);
  EXPECT_GT(gpu.instructions().total(0), 0u);
}

TEST(GpuTest, MalformedPartitionRequestRaisesTypedError) {
  // The policies call set_partition directly, so it alone rejects a
  // request with the wrong number of owners or an unknown owner.
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA"), launch("SD")});
  const int n = cfg.num_sms;
  for (const std::vector<AppId>& bad :
       {std::vector<AppId>(n - 1, 0), std::vector<AppId>(n + 1, 0),
        std::vector<AppId>(n, 2), std::vector<AppId>(n, -2)}) {
    SCOPED_TRACE(bad.size());
    try {
      gpu.set_partition(bad);
      FAIL() << "the request was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    }
  }
  EXPECT_FALSE(gpu.migration_in_progress());
}

TEST(GpuTest, EndIntervalProducesConsistentSample) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA"), launch("SD", 43)});
  gpu.set_partition(even_partition(16, 2));
  gpu.run(30000);
  const IntervalSample s = gpu.end_interval();
  EXPECT_EQ(s.length, 30000u);
  EXPECT_EQ(s.count_apps, 2);
  EXPECT_EQ(s.total_sms, 16);
  ASSERT_EQ(s.apps.size(), 2u);
  u64 total = 0;
  for (const auto& d : s.apps) {
    EXPECT_EQ(d.num_sms, 8);
    EXPECT_EQ(d.sm_cycles, 8u * 30000u);
    EXPECT_GT(d.instructions, 0u);
    EXPECT_GE(d.alpha, 0.0);
    EXPECT_LE(d.alpha, 1.0);
    EXPECT_GT(d.requests_served, 0u);
    EXPECT_GE(d.blp, d.blp_access);
    total += d.requests_served;
  }
  EXPECT_EQ(s.total_requests_served, total);

  // A second interval reports only the delta.
  gpu.run(10000);
  const IntervalSample s2 = gpu.end_interval();
  EXPECT_EQ(s2.length, 10000u);
  EXPECT_LT(s2.apps[0].instructions, s.apps[0].instructions + 1);
}

TEST(GpuTest, QuiescesAfterWorkStops) {
  GpuConfig cfg;
  Gpu gpu(cfg, {launch("VA")});
  gpu.set_partition(even_partition(16, 1));
  gpu.run(10000);
  // Drain every SM.
  gpu.set_partition(std::vector<AppId>(16, kInvalidApp));
  Cycle waited = 0;
  while ((gpu.migration_in_progress() || !gpu.memory_system_quiescent()) &&
         waited < 2'000'000) {
    gpu.run(1000);
    waited += 1000;
  }
  EXPECT_TRUE(gpu.memory_system_quiescent());
}

TEST(GpuTest, RejectsABlockThatCanNeverBeResident) {
  // VA's 12-warp blocks fit 12 warp contexts; a block of 13 warps never
  // finds its contexts, and one of no warps has no occupancy to compute.
  GpuConfig cfg;
  cfg.max_warps_per_sm = 12;
  for (const int warps : {-1, 0, 13}) {
    SCOPED_TRACE(warps);
    AppLaunch sa = launch("SA");
    sa.profile.warps_per_block = warps;
    try {
      Gpu gpu(cfg, {launch("VA"), sa});
      FAIL() << "the launch was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
      EXPECT_EQ(e.error_app(), 1);
      const std::string what = e.what();
      EXPECT_NE(what.find("warps_per_block"), std::string::npos) << what;
      EXPECT_NE(what.find("max_warps_per_sm"), std::string::npos) << what;
    }
  }
  EXPECT_NO_THROW(Gpu(cfg, {launch("VA"), launch("SA")}));
}

}  // namespace
}  // namespace gpusim
