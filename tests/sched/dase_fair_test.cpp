#include "sched/dase_fair.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

TEST(InterpolationTest, IdentityAtAssignedCount) {
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 8, 16),
                   0.5);
}

TEST(InterpolationTest, PaperWorkedExample) {
  // Paper Section VII: slowdown 2 on 8 of 16 SMs -> reciprocal 0.5; at 12
  // SMs the interpolated reciprocal is 0.5 + (12-8)/(16-8) * 0.5 = 0.75.
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 12, 16),
                   0.75);
}

TEST(InterpolationTest, EndpointsReachOneAndZero) {
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 16, 16),
                   1.0);
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.5, 8, 0, 16),
                   0.0);
}

TEST(InterpolationTest, DownwardUsesEq30) {
  // Eq. 30: r - (8-4)/8 * r = r/2.
  EXPECT_DOUBLE_EQ(DaseFairPolicy::interpolate_reciprocal(0.6, 8, 4, 16),
                   0.3);
}

class InterpolationSweep : public ::testing::TestWithParam<double> {};

TEST_P(InterpolationSweep, MonotoneNondecreasingInSmCount) {
  const double r = GetParam();
  double prev = -1.0;
  for (int x = 0; x <= 16; ++x) {
    const double v = DaseFairPolicy::interpolate_reciprocal(r, 8, x, 16);
    EXPECT_GE(v, prev - 1e-12) << "x=" << x;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Reciprocals, InterpolationSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.8, 1.0));

TEST(SearchTest, BalancedAppsStayEven) {
  // Equal reciprocals: the even split is already optimal.
  const std::vector<double> r = {0.5, 0.5};
  const std::vector<int> assigned = {8, 8};
  double unf = 0.0;
  const auto best =
      DaseFairPolicy::search_best_split(r, assigned, 16, 1, &unf);
  EXPECT_EQ(best, (std::vector<int>{8, 8}));
  EXPECT_NEAR(unf, 1.0, 1e-9);
}

TEST(SearchTest, ShiftsSmsTowardTheSlowedApp) {
  // App 0 slowed 4x (r=0.25), app 1 slowed 1.33x (r=0.75): fairness
  // improves by giving app 0 more SMs.
  const std::vector<double> r = {0.25, 0.75};
  const std::vector<int> assigned = {8, 8};
  double unf = 0.0;
  const auto best =
      DaseFairPolicy::search_best_split(r, assigned, 16, 1, &unf);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_GT(best[0], 8);
  EXPECT_LT(best[1], 8);
  EXPECT_EQ(best[0] + best[1], 16);
  EXPECT_LT(unf, 3.0) << "must improve on the even split's predicted 3.0";
}

TEST(SearchTest, RespectsMinimumSmsPerApp) {
  const std::vector<double> r = {0.05, 0.95};
  const std::vector<int> assigned = {8, 8};
  const auto best = DaseFairPolicy::search_best_split(r, assigned, 16, 2);
  EXPECT_GE(best[0], 2);
  EXPECT_GE(best[1], 2);
}

TEST(SearchTest, FourAppSplitSumsToTotal) {
  const std::vector<double> r = {0.3, 0.5, 0.7, 0.9};
  const std::vector<int> assigned = {4, 4, 4, 4};
  const auto best = DaseFairPolicy::search_best_split(r, assigned, 16, 1);
  ASSERT_EQ(best.size(), 4u);
  EXPECT_EQ(std::accumulate(best.begin(), best.end(), 0), 16);
  // Most slowed app (r=0.3) must not lose SMs relative to the least.
  EXPECT_GE(best[0], best[3]);
}

TEST(EligibilityTest, ShortOrSmallKernelsAreExcluded) {
  KernelProfile ok = *find_app("VA");
  EXPECT_TRUE(dase_fair_eligible(ok));

  KernelProfile few_blocks = ok;
  few_blocks.blocks_total = 8;
  EXPECT_FALSE(dase_fair_eligible(few_blocks));

  KernelProfile short_warps = ok;
  short_warps.instrs_per_warp = 100;
  EXPECT_FALSE(dase_fair_eligible(short_warps));
}

TEST(EligibilityTest, AllRegistryAppsAreEligible) {
  for (const auto& app : app_registry()) {
    EXPECT_TRUE(dase_fair_eligible(app)) << app.abbr;
  }
}

/// Records the SM owners at every interval boundary, as the policy left
/// them (attached after it).
class PartitionWatch final : public IntervalObserver {
 public:
  struct Tick {
    Cycle cycle = 0;
    std::vector<AppId> partition;
  };
  std::vector<Tick> ticks;

  void on_interval(const IntervalSample&, Gpu& gpu) override {
    ticks.push_back({gpu.now(), gpu.current_partition()});
  }
};

// Adversarial schedule — two windowed partition stalls and a dropped
// response.  Whatever the estimator makes of that, the partition visible
// at every interval boundary must give each SM a launched owner and each
// application at least one SM.
TEST(DaseFairPolicyTest, AdversarialScheduleNeverYieldsAnInvalidPartition) {
  RunConfig rc;
  rc.co_run_cycles = 100'000;
  rc.gpu.estimation_interval = 10'000;
  rc.faults = FaultSchedule{}
                  .stall_partition(1, 20'000, 28'000)
                  .stall_partition(3, 45'000, 52'000)
                  .drop_response_nth(500);
  const Workload workload{{*find_app("VA"), *find_app("SD")}};

  CoRunAssembly a = assemble_corun(rc, workload, ModelSet{.dase = true},
                                   PolicyKind::kDaseFair);
  PartitionWatch watch;
  a.sim->add_observer(&watch);
  a.sim->run(rc.co_run_cycles);

  ASSERT_GE(watch.ticks.size(), 5u);
  const int num_apps = a.sim->gpu().num_apps();
  for (const PartitionWatch::Tick& t : watch.ticks) {
    ASSERT_EQ(t.partition.size(), 16u);
    std::vector<int> owned(static_cast<std::size_t>(num_apps), 0);
    for (const AppId owner : t.partition) {
      ASSERT_GE(owner, 0) << "unowned SM at cycle " << t.cycle;
      ASSERT_LT(owner, num_apps) << "bogus owner at cycle " << t.cycle;
      ++owned[static_cast<std::size_t>(owner)];
    }
    for (int app = 0; app < num_apps; ++app) {
      EXPECT_GE(owned[static_cast<std::size_t>(app)], 1)
          << "app " << app << " starved out at cycle " << t.cycle;
    }
  }
}

}  // namespace
}  // namespace gpusim
