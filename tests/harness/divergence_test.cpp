// Divergence auditor tests: identical runs audit clean across execution
// strategies (activity engine on/off, thread placement); intentionally
// different runs are caught at the first sampled cycle with the diverging
// components named.
#include "harness/divergence.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

std::unique_ptr<Simulation> make_sim(u64 base_seed) {
  GpuConfig cfg;
  std::vector<AppLaunch> launches;
  launches.push_back(AppLaunch{*find_app("SD"), harness_app_seed(base_seed, 0)});
  launches.push_back(AppLaunch{*find_app("SA"), harness_app_seed(base_seed, 1)});
  auto sim = std::make_unique<Simulation>(cfg, std::move(launches));
  sim->gpu().set_partition(even_partition(sim->gpu().num_sms(), 2));
  return sim;
}

TEST(DivergenceAudit, IdenticalRunsAuditClean) {
  auto a = make_sim(42);
  auto b = make_sim(42);
  const DivergenceReport report = audit_divergence(*a, *b, 40'000, 5'000);
  EXPECT_FALSE(report.diverged) << report.to_string();
  EXPECT_EQ(report.samples_checked, 9u);  // cycle 0 + 8 strides
  EXPECT_NE(report.to_string().find("no divergence"), std::string::npos);
}

TEST(DivergenceAudit, ActivityEngineOnOffAuditsClean) {
  auto a = make_sim(42);
  auto b = make_sim(42);
  a->set_activity_sched(true);
  b->set_activity_sched(false);
  const DivergenceReport report = audit_divergence(*a, *b, 60'000, 10'000);
  EXPECT_FALSE(report.diverged) << report.to_string();
}

TEST(DivergenceAudit, DifferentSeedsDivergeWithComponentsNamed) {
  auto a = make_sim(42);
  auto b = make_sim(43);
  const DivergenceReport report = audit_divergence(*a, *b, 40'000, 5'000);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_cycle, 0u);  // differ before any cycle
  EXPECT_NE(report.hash_a, report.hash_b);
  EXPECT_FALSE(report.component_mismatches.empty());
  EXPECT_FALSE(report.dump_a.empty());
  EXPECT_FALSE(report.dump_b.empty());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("DIVERGENCE at cycle 0"), std::string::npos) << text;
  EXPECT_NE(text.find("component "), std::string::npos) << text;
}

TEST(DivergenceAudit, MidRunPerturbationIsLocalizedToFirstSample) {
  auto a = make_sim(42);
  auto b = make_sim(42);
  a->run(10'000);
  b->run(10'000);
  // Perturb one application's block counter in run B only.
  b->gpu().runtime(0).on_block_complete(0);
  const DivergenceReport report = audit_divergence(*a, *b, 20'000, 5'000);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_cycle, 10'000u);
  bool names_app_runtime = false;
  for (const ComponentMismatch& m : report.component_mismatches) {
    if (m.name == "app_runtime[0]") names_app_runtime = true;
  }
  EXPECT_TRUE(names_app_runtime) << report.to_string();
}

TEST(DivergenceAudit, RejectsMisalignedStarts) {
  auto a = make_sim(42);
  auto b = make_sim(42);
  a->run(1'000);
  EXPECT_THROW(audit_divergence(*a, *b, 10'000, 1'000), SimError);
  auto c = make_sim(42);
  auto d = make_sim(42);
  EXPECT_THROW(audit_divergence(*c, *d, 10'000, 0), SimError);
}

TEST(DivergenceAudit, StateHashIndependentOfThreadPlacement) {
  // The --jobs N guarantee at the state level: running the same workload
  // on different threads produces the same state hash at every checkpoint.
  u64 hash_main = 0;
  u64 hash_thread = 0;
  {
    auto sim = make_sim(42);
    sim->run(30'000);
    hash_main = sim->state_hash();
  }
  std::thread worker([&hash_thread]() {
    auto sim = make_sim(42);
    sim->run(30'000);
    hash_thread = sim->state_hash();
  });
  worker.join();
  EXPECT_EQ(hash_main, hash_thread);
}

}  // namespace
}  // namespace gpusim
