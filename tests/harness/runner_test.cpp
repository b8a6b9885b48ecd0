#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/gpu.hpp"
#include "gpu/simulator.hpp"
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

TEST(RunnerTest, PolicyAndModelNamesRoundTrip) {
  for (const PolicyKind policy :
       {PolicyKind::kEven, PolicyKind::kDaseFair, PolicyKind::kLeftover,
        PolicyKind::kTemporal, PolicyKind::kDaseQos}) {
    EXPECT_EQ(parse_policy_kind(to_string(policy)), policy)
        << to_string(policy);
  }
  // The CLI's documented spelling is the only one.
  EXPECT_STREQ(to_string(PolicyKind::kDaseQos), "qos");
  EXPECT_THROW(parse_policy_kind("dase-qos"), SimError);

  for (int bits = 0; bits < 8; ++bits) {
    const ModelSet models{.dase = (bits & 1) != 0,
                          .mise = (bits & 2) != 0,
                          .asm_model = (bits & 4) != 0};
    const ModelSet parsed = parse_model_set(to_string(models));
    EXPECT_EQ(parsed.dase, models.dase) << to_string(models);
    EXPECT_EQ(parsed.mise, models.mise) << to_string(models);
    EXPECT_EQ(parsed.asm_model, models.asm_model) << to_string(models);
  }
  EXPECT_EQ(to_string(ModelSet{.dase = true, .mise = true, .asm_model = true}),
            "dase,mise,asm");
  const ModelSet reordered = parse_model_set("asm,,dase");
  EXPECT_TRUE(reordered.dase);
  EXPECT_FALSE(reordered.mise);
  EXPECT_TRUE(reordered.asm_model);
  try {
    parse_model_set("dase,bogus");
    FAIL() << "an unknown model name parsed";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
  }
}

/// The snapshot fingerprint of a co-run assembled from these inputs.
u64 fingerprint_of(const RunConfig& rc, const Workload& w,
                   const ModelSet& models, PolicyKind policy,
                   const std::vector<int>* split) {
  const CoRunAssembly a = assemble_corun(rc, w, models, policy, split);
  return corun_fingerprint(*a.sim,
                           corun_identity(rc, w, models, policy, split));
}

TEST(RunnerTest, FingerprintCoversEveryIdentityInput) {
  const RunConfig base = quick_config();
  const Workload w{{*find_app("CT"), *find_app("SP")}};
  const ModelSet dase{.dase = true};
  const u64 base_fp = fingerprint_of(base, w, dase, PolicyKind::kEven, nullptr);

  // Each variant changes exactly one input; every fingerprint must differ
  // from the base and from every other variant.
  std::map<std::string, u64> variants;
  const auto add = [&](const std::string& name, const u64 fp) {
    EXPECT_NE(fp, base_fp) << name;
    variants[name] = fp;
  };
  const auto with = [&](const std::string& name, auto&& change) {
    RunConfig rc = base;
    change(rc);
    add(name, fingerprint_of(rc, w, dase, PolicyKind::kEven, nullptr));
  };
  add("app slot 0",
      fingerprint_of(base, Workload{{*find_app("SD"), *find_app("SP")}},
                     dase, PolicyKind::kEven, nullptr));
  add("app slot 1",
      fingerprint_of(base, Workload{{*find_app("CT"), *find_app("SD")}},
                     dase, PolicyKind::kEven, nullptr));
  with("base_seed", [](RunConfig& rc) { ++rc.base_seed; });
  with("co_run_cycles", [](RunConfig& rc) { ++rc.co_run_cycles; });
  add("no dase", fingerprint_of(base, w, ModelSet{.dase = false},
                                PolicyKind::kEven, nullptr));
  add("mise", fingerprint_of(base, w, ModelSet{.dase = true, .mise = true},
                             PolicyKind::kEven, nullptr));
  add("asm",
      fingerprint_of(base, w, ModelSet{.dase = true, .asm_model = true},
                     PolicyKind::kEven, nullptr));
  for (const PolicyKind policy :
       {PolicyKind::kDaseFair, PolicyKind::kLeftover, PolicyKind::kTemporal,
        PolicyKind::kDaseQos}) {
    add(to_string(policy), fingerprint_of(base, w, dase, policy, nullptr));
  }
  const std::vector<int> split_a = {4, 12};
  const std::vector<int> split_b = {12, 4};
  add("split 4,12", fingerprint_of(base, w, dase, PolicyKind::kEven, &split_a));
  add("split 12,4", fingerprint_of(base, w, dase, PolicyKind::kEven, &split_b));
  with("faults", [](RunConfig& rc) {
    rc.faults = FaultSchedule::parse("drop-resp:nth=200");
  });
  with("temporal.quantum", [](RunConfig& rc) { rc.temporal.quantum = 20'000; });
  with("qos.qos_app", [](RunConfig& rc) { rc.qos.qos_app = 1; });
  with("qos.target_slowdown",
       [](RunConfig& rc) { rc.qos.target_slowdown = 1.5; });
  with("qos.release_margin",
       [](RunConfig& rc) { rc.qos.release_margin = 0.2; });
  with("qos.warmup_intervals",
       [](RunConfig& rc) { rc.qos.warmup_intervals = 2; });
  with("qos.min_sms_per_app",
       [](RunConfig& rc) { rc.qos.min_sms_per_app = 2; });
  std::set<u64> distinct;
  for (const auto& [name, fp] : variants) distinct.insert(fp);
  EXPECT_EQ(distinct.size(), variants.size());

  // Caller configuration stays out: snapshots survive a changed watchdog
  // or governor setting.
  RunConfig caller = base;
  caller.watchdog_cycles = 12'345;
  caller.governor = false;
  EXPECT_EQ(fingerprint_of(caller, w, dase, PolicyKind::kEven, nullptr),
            base_fp);
}

TEST(RunnerTest, IdentityParserRebuildsTheCoRun) {
  RunConfig rc = quick_config();
  rc.base_seed = 7;
  rc.faults = FaultSchedule::parse("drop-resp:nth=200;seed=3");
  rc.temporal.quantum = 12'345;
  rc.qos = DaseQosOptions{.qos_app = 1,
                          .target_slowdown = 1.3,
                          .release_margin = 0.1,
                          .warmup_intervals = 3,
                          .min_sms_per_app = 2};
  const Workload w{{*find_app("CT"), *find_app("SP")}};
  const ModelSet models{.dase = false, .mise = true, .asm_model = true};
  const std::vector<int> split = {6, 10};
  const std::string identity =
      corun_identity(rc, w, models, PolicyKind::kDaseQos, &split);

  const CoRunSpec spec = parse_corun_identity(identity);
  EXPECT_EQ(spec.workload.label(), "CT+SP");
  EXPECT_EQ(spec.rc.base_seed, 7u);
  EXPECT_EQ(spec.rc.co_run_cycles, rc.co_run_cycles);
  EXPECT_EQ(spec.policy, PolicyKind::kDaseQos);
  EXPECT_EQ(spec.sm_split, split);
  EXPECT_EQ(spec.rc.faults.to_string(), rc.faults.to_string());
  EXPECT_EQ(spec.rc.temporal.quantum, 12'345u);
  EXPECT_EQ(spec.rc.qos.qos_app, 1);
  EXPECT_EQ(spec.rc.qos.target_slowdown, 1.3);
  EXPECT_EQ(spec.rc.qos.release_margin, 0.1);
  EXPECT_EQ(spec.rc.qos.warmup_intervals, 3);
  EXPECT_EQ(spec.rc.qos.min_sms_per_app, 2);
  // The writer over the parsed co-run reproduces the text exactly, which
  // is what lets --triage recompute the bundle's fingerprint.
  EXPECT_EQ(corun_identity(spec.rc, spec.workload, spec.models, spec.policy,
                           spec.split()),
            identity);

  // A missing key is a typed snapshot error, not a default.
  const std::string cut = identity.substr(0, identity.find("  \"policy\""));
  try {
    parse_corun_identity(cut);
    FAIL() << "an identity without a policy parsed";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
  }
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
