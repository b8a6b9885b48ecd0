#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/gpu.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

RunConfig quick_config() {
  RunConfig rc;
  rc.co_run_cycles = 60'000;
  rc.gpu.estimation_interval = 20'000;
  return rc;
}

TEST(RunnerTest, CoRunProducesConsistentResult) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  EXPECT_EQ(r.label, "VA+SD");
  EXPECT_EQ(r.cycles, 60'000u);
  ASSERT_EQ(r.apps.size(), 2u);
  for (const AppResult& a : r.apps) {
    EXPECT_GT(a.instructions, 0u);
    EXPECT_GT(a.ipc_shared, 0.0);
    EXPECT_GT(a.ipc_alone, 0.0);
    EXPECT_GT(a.actual_slowdown, 1.0) << "sharing must cost something";
    EXPECT_GT(a.estimates.at("DASE"), 0.9);
  }
  EXPECT_GE(r.unfairness, 1.0);
  EXPECT_GT(r.harmonic_speedup, 0.0);
  EXPECT_LE(r.harmonic_speedup, 1.0);
  // Bandwidth decomposition is a sane partition of capacity.
  double total = r.wasted_bw_share + r.idle_bw_share;
  for (double share : r.app_bw_share) {
    EXPECT_GE(share, 0.0);
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 0.05);
}

TEST(RunnerTest, CustomSmSplitApplied) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SA")}};
  const std::vector<int> split = {4, 12};
  const CoRunResult r4 =
      runner.run(w, ModelSet{.dase = true}, PolicyKind::kEven, &split);
  const CoRunResult r8 = runner.run(w, ModelSet{.dase = true});
  // With only 4 SMs, VA executes fewer instructions than with 8.
  EXPECT_LT(r4.apps[0].instructions, r8.apps[0].instructions);
  EXPECT_GT(r4.apps[1].instructions, r8.apps[1].instructions);
}

TEST(RunnerTest, AloneStatsArePlausible) {
  const ExperimentRunner runner(quick_config());
  const AloneStats stats = runner.alone_stats(*find_app("VA"));
  EXPECT_GT(stats.ipc, 0.0);
  EXPECT_GT(stats.bw_util, 0.0);
  EXPECT_LT(stats.bw_util, 1.0);
}

TEST(RunnerTest, AloneReplayStopsOnTheCycleItReachesTheTarget) {
  // Each target falls mid-interval, where a replay that only checks its
  // target at interval ends would overshoot.
  const RunConfig rc = quick_config();
  ExperimentRunner runner(rc);
  for (const char* abbr : {"VA", "SD"}) {
    SCOPED_TRACE(abbr);
    const KernelProfile app = *find_app(abbr);
    const u64 seed = harness_app_seed(rc.base_seed, 1);
    Gpu gpu(rc.gpu, {AppLaunch{app, seed}});
    gpu.set_activity_sched(false);  // hand-step the per-cycle walk
    gpu.set_partition(even_partition(gpu.num_sms(), 1));
    gpu.run(37'123);
    const u64 target = gpu.instructions().total(0) + 1;
    while (gpu.instructions().total(0) < target) gpu.cycle();
    EXPECT_EQ(runner.measure_alone_cycles(app, seed, target), gpu.now());
  }
}

TEST(RunnerTest, UnreachableAloneTargetRaisesBudgetExceeded) {
  RunConfig rc = quick_config();
  rc.max_alone_cycles = 5'000;
  ExperimentRunner runner(rc);
  try {
    runner.measure_alone_cycles(*find_app("SD"), 1, u64{1} << 50);
    FAIL() << "a truncated alone replay returned a cycle count";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kBudgetExceeded);
    EXPECT_EQ(e.error_cycle(), 5'000u);
    const std::string what = e.what();
    EXPECT_NE(what.find("target_instructions: 1125899906842624"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("\n  instructions: "), std::string::npos) << what;
  }
}

TEST(RunnerTest, EpochModelsAttachWithoutDisturbingResult) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const CoRunResult r = runner.run(
      w, ModelSet{.dase = true, .mise = true, .asm_model = true});
  for (const AppResult& a : r.apps) {
    EXPECT_TRUE(a.estimates.contains("DASE"));
    EXPECT_TRUE(a.estimates.contains("MISE"));
    EXPECT_TRUE(a.estimates.contains("ASM"));
  }
}

TEST(RunnerTest, MeanErrorAggregatesPerApp) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("CS"), *find_app("CT")}};
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  double sum = 0.0;
  for (const AppResult& a : r.apps) sum += a.estimation_error_of("DASE");
  EXPECT_NEAR(r.mean_error_of("DASE"), sum / 2.0, 1e-12);
}

TEST(RunnerTest, MissingModelEstimateRaisesStructuredError) {
  AppResult app;
  app.abbr = "VA";
  app.actual_slowdown = 2.0;
  app.estimates["DASE"] = 1.8;
  try {
    app.estimation_error_of("MISE");
    FAIL() << "estimation_error_of accepted a model that never ran";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    const std::string what = e.what();
    EXPECT_NE(what.find("MISE"), std::string::npos);
    EXPECT_NE(what.find("DASE"), std::string::npos)
        << "message should list the models that are available";
    EXPECT_NE(what.find("VA"), std::string::npos);
  }
}

TEST(RunnerTest, OversubscribedSplitRaisesStructuredError) {
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const std::vector<int> split = {100, 100};
  EXPECT_THROW(runner.run(w, ModelSet{.dase = true}, PolicyKind::kEven,
                          &split),
               SimError);
}

TEST(RunnerTest, CyclesFromEnvParsesAndFallsBack) {
  ::setenv("GPUSIM_TEST_CYCLES", "12345", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 5), 12345u);
  ::setenv("GPUSIM_TEST_CYCLES", "not-a-number", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 5), 5u);
  ::unsetenv("GPUSIM_TEST_CYCLES");
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 7), 7u);
}

}  // namespace
}  // namespace gpusim
