#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/gpu.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
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

/// The value of detail `key` in `e`, or "" when it has none.
std::string detail_of(const SimError& e, const std::string& key) {
  for (const auto& [k, value] : e.details()) {
    if (k == key) return value;
  }
  return "";
}

TEST(RunnerTest, IpcAloneIsTheExactReplayOfEverySlot) {
  // Every slot is replayed on its own helper thread while the co-run
  // steps; each must match a one-shot replay of the app's final count.
  // Snapshot strides of 10K cycles fall between the co-run's 4096-cycle
  // steps.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gpusim_runner_ipc_alone";
  std::filesystem::remove_all(dir);
  struct Case {
    Workload workload;
    PolicyKind policy;
  };
  const std::vector<Case> cases = {
      {Workload{{*find_app("BS"), *find_app("SD")}}, PolicyKind::kEven},
      {Workload{{*find_app("VA"), *find_app("SA"), *find_app("CS"),
                 *find_app("QR")}},
       PolicyKind::kEven},
      {Workload{{*find_app("SD"), *find_app("CT")}}, PolicyKind::kLeftover},
  };
  for (const Case& c : cases) {
    std::vector<u64> instructions;
    for (const Cycle snapshot_every : {Cycle{0}, Cycle{10'000}}) {
      SCOPED_TRACE(c.workload.label() + " snapshot_every " +
                   std::to_string(snapshot_every));
      RunConfig rc = quick_config();
      rc.snapshot_every = snapshot_every;
      rc.snapshot_dir = dir.string();
      const ExperimentRunner runner(rc);
      const CoRunResult r =
          runner.run(c.workload, ModelSet{.dase = true}, c.policy);
      ASSERT_EQ(r.apps.size(), c.workload.apps.size());
      for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const AppResult& a = r.apps[i];
        const KernelProfile& app = c.workload.apps[i];
        if (a.instructions == 0) {
          EXPECT_EQ(c.policy, PolicyKind::kLeftover) << a.abbr;
          EXPECT_EQ(a.ipc_alone, runner.alone_stats(app).ipc) << a.abbr;
          continue;
        }
        const Cycle cycles = runner.measure_alone_cycles(
            app, harness_app_seed(rc.base_seed, static_cast<int>(i)),
            a.instructions);
        EXPECT_EQ(a.ipc_alone, static_cast<double>(a.instructions) / cycles)
            << a.abbr;
      }
      std::vector<u64> counts;
      for (const AppResult& a : r.apps) counts.push_back(a.instructions);
      if (instructions.empty()) {
        instructions = counts;
      } else {
        EXPECT_EQ(counts, instructions) << "snapshots changed the co-run";
      }
    }
    if (c.policy == PolicyKind::kLeftover) {
      EXPECT_EQ(instructions[1], 0u) << "LEFTOVER must starve slot 1";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RunnerTest, CoRunErrorComesFirstOverCappedReplays) {
  // Every slot's replay is capped at 5K cycles, which SD's and SA's co-run
  // counts outgrow by co-run cycle ~13K (their slowdowns are about 2.6
  // and 1.7).  The co-run's own error must still be the one raised, after
  // the helpers are stopped: a hang the watchdog reports mid-run (with and
  // without snapshot strides) and a dropped response the audit reports
  // after the last step.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gpusim_runner_corun_error";
  std::filesystem::remove_all(dir);
  struct Case {
    const char* faults;
    Cycle snapshot_every;
    SimErrorKind kind;
    const char* component;
    Cycle cycle;
  };
  for (const Case& c :
       {Case{"stall:part=0,from=20000", 0, SimErrorKind::kWatchdogStall,
             "gpu.simulation", 24'576},
        Case{"stall:part=0,from=20000", 10'000, SimErrorKind::kWatchdogStall,
             "gpu.simulation", 24'576},
        Case{"drop-resp:nth=200", 0, SimErrorKind::kConservation, "gpu",
             60'000}}) {
    SCOPED_TRACE(std::string(c.faults) + " snapshot_every " +
                 std::to_string(c.snapshot_every));
    RunConfig rc = quick_config();
    rc.watchdog_cycles = 3'000;
    rc.faults = FaultSchedule::parse(c.faults);
    rc.max_alone_cycles = 5'000;
    rc.snapshot_every = c.snapshot_every;
    rc.snapshot_dir = dir.string();
    const ExperimentRunner runner(rc);
    try {
      runner.run(Workload{{*find_app("SD"), *find_app("SA")}},
                 ModelSet{.dase = true});
      FAIL() << "a failed co-run returned a result";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), c.kind) << e.what();
      EXPECT_EQ(e.component(), c.component) << e.what();
      EXPECT_EQ(e.error_cycle(), c.cycle) << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RunnerTest, CappedReplaysFailInSlotOrderWithTheFinalCoRunCount) {
  // A capped replay names its app's final co-run count as the target, and
  // the first slot whose replay fails raises its error, as when the
  // replays ran one after another.
  const RunConfig rc = quick_config();
  const Workload w{{*find_app("SD"), *find_app("VA")}};
  const ModelSet models{.dase = true};
  const CoRunAssembly corun =
      assemble_corun(rc, w, models, PolicyKind::kEven);
  corun.sim->run(rc.co_run_cycles);
  const ExperimentRunner uncapped(rc);
  std::vector<u64> final_counts;
  std::vector<Cycle> alone_cycles;
  for (int i = 0; i < 2; ++i) {
    final_counts.push_back(corun.sim->gpu().instructions().total(i));
    ASSERT_GT(final_counts[i], 0u);
    alone_cycles.push_back(uncapped.measure_alone_cycles(
        w.apps[i], harness_app_seed(rc.base_seed, i), final_counts[i]));
  }
  ASSERT_LT(alone_cycles[0], alone_cycles[1])
      << "a cap between the two must fail slot 1 alone";

  struct Case {
    Cycle cap;
    int failing_slot;
  };
  for (const Case c : {Case{(alone_cycles[0] + alone_cycles[1]) / 2, 1},
                       Case{alone_cycles[0] / 2, 0}}) {
    SCOPED_TRACE("max_alone_cycles " + std::to_string(c.cap));
    RunConfig capped = rc;
    capped.max_alone_cycles = c.cap;
    try {
      ExperimentRunner(capped).run(w, models);
      FAIL() << "a truncated replay returned a result";
    } catch (const SimError& e) {
      // The text UnreachableAloneTargetRaisesBudgetExceeded checks, with
      // the failing slot's final co-run count as the target.
      EXPECT_EQ(e.kind(), SimErrorKind::kBudgetExceeded);
      EXPECT_EQ(e.component(), "harness.runner") << e.what();
      EXPECT_EQ(e.error_cycle(), c.cap);
      const std::string what = e.what();
      EXPECT_NE(what.find("target_instructions: " +
                          std::to_string(final_counts[c.failing_slot])),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("\n  instructions: "), std::string::npos) << what;
      EXPECT_EQ(detail_of(e, "app"), w.apps[c.failing_slot].abbr) << what;
    }
  }
}

TEST(RunnerTest, FaultedRunsAuditConservation) {
  // run() audits a faulted co-run like any other: a dropped response or
  // request is a typed conservation failure, never a result, while a stall
  // window that closes loses nothing and the run completes.
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  for (const char* drop : {"drop-resp:nth=200", "drop-req:nth=300"}) {
    SCOPED_TRACE(drop);
    RunConfig rc = quick_config();
    rc.faults = FaultSchedule::parse(drop);
    try {
      ExperimentRunner(rc).run(w, ModelSet{.dase = true});
      FAIL() << "a co-run that lost a packet returned a result";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConservation) << e.what();
    }
  }
  RunConfig rc = quick_config();
  rc.faults = FaultSchedule::parse("stall:part=0,from=1000,until=5000");
  const CoRunResult r = ExperimentRunner(rc).run(w, ModelSet{.dase = true});
  EXPECT_EQ(r.cycles, rc.co_run_cycles);
  for (const AppResult& app : r.apps) EXPECT_GT(app.instructions, 0u);
}

TEST(RunnerTest, StallOfANonexistentPartitionIsAConfigError) {
  // The default machine has 6 partitions: a stall of partition 9 would
  // freeze nothing and the run would pass as if unfaulted.
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  RunConfig rc = quick_config();
  rc.faults = FaultSchedule::parse("stall:part=9,from=1000");
  try {
    ExperimentRunner(rc).run(w, ModelSet{.dase = true});
    FAIL() << "ran a stall of partition 9 on a 6-partition machine";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
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

/// The snapshot fingerprint of a co-run assembled from these inputs.  It
/// must equal the fingerprint of the assembled simulation, because that is
/// what a restore compares against the file.
u64 fingerprint_of(const RunConfig& rc, const Workload& w,
                   const ModelSet& models, PolicyKind policy,
                   const std::vector<int>* split) {
  const u64 fingerprint = corun_fingerprint(rc, w, models, policy, split);
  const CoRunAssembly a = assemble_corun(rc, w, models, policy, split);
  Hasher context;
  context.put_tag("HCTX");
  context.put_string(corun_identity(rc, w, models, policy, split));
  EXPECT_EQ(simulation_fingerprint(*a.sim, context.digest()), fingerprint);
  return fingerprint;
}

// The watchdog threshold also bounds an SM drain: VA+SD's DASE-Fair
// migration waits on blocks that run longer than 50K cycles while the
// other SMs keep the progress check quiet, so the run must die with the
// drain's own typed error, naming the SMs that are still draining.
TEST(RunnerTest, DrainPendingPastTheWatchdogIsMigrationStalled) {
  RunConfig rc;
  rc.co_run_cycles = 300'000;
  rc.watchdog_cycles = 50'000;
  try {
    ExperimentRunner(rc).run(Workload{{*find_app("VA"), *find_app("SD")}},
                             ModelSet{.dase = true}, PolicyKind::kDaseFair);
    FAIL() << "expected kMigrationStalled";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kMigrationStalled) << e.what();
    EXPECT_NE(std::string(e.what()).find("sm="), std::string::npos)
        << "the error must name the stalled SMs";
  }
}

// A DASE-Fair co-run snapshotted while a migration drains restores into a
// freshly assembled co-run byte for byte, drain start included, and the
// two continue in lockstep.
TEST(RunnerTest, DaseFairSnapshotMidMigrationRestoresExactly) {
  RunConfig rc = quick_config();
  rc.gpu.estimation_interval = 10'000;
  const Workload w{{*find_app("VA"), *find_app("SD")}};
  const ModelSet dase{.dase = true};

  CoRunAssembly a = assemble_corun(rc, w, dase, PolicyKind::kDaseFair);
  a.sim->run(60'000);
  ASSERT_TRUE(a.sim->gpu().migration_in_progress())
      << "no drain pending at the snapshot";
  const std::vector<u8> bytes = a.sim->snapshot();

  CoRunAssembly b = assemble_corun(rc, w, dase, PolicyKind::kDaseFair);
  b.sim->restore(bytes);
  EXPECT_EQ(a.sim->state_hash(), b.sim->state_hash());
  EXPECT_EQ(bytes, b.sim->snapshot());
  EXPECT_EQ(b.sim->gpu().migration_pending_since(),
            a.sim->gpu().migration_pending_since());

  a.sim->run(20'000);
  b.sim->run(20'000);
  EXPECT_EQ(a.sim->state_hash(), b.sim->state_hash());
}

// A partition stalled forever under DASE-Fair must end in the progress
// watchdog's typed stall, never in a result or an untyped escape: the
// progress check runs before the drain check.
TEST(RunnerTest, StallForeverUnderDaseFairIsAWatchdogStall) {
  RunConfig rc;
  rc.co_run_cycles = 40'000;
  rc.gpu.estimation_interval = 10'000;
  rc.watchdog_cycles = 10'000;
  rc.faults = FaultSchedule{}.stall_partition(0, 2'000, 0);

  try {
    ExperimentRunner(rc).run(Workload{{*find_app("VA"), *find_app("SD")}},
                             ModelSet{.dase = true}, PolicyKind::kDaseFair);
    FAIL() << "a partition stalled forever let the run finish";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kWatchdogStall) << e.what();
  }
}

// A failed co-run keeps its last stride snapshot, and the same run()
// again resumes from it and repeats the error at the same cycle: rerunning
// the command is how a failure reproduces.  The snapshot fingerprint
// hashes the policy options, so a non-default quantum or QoS target must
// match on the rerun, or it would start over from cycle 0.
TEST(RunnerTest, FailedRunResumesToTheSameError) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gpusim_runner_failed_resume";
  std::filesystem::remove_all(dir);
  const Workload w{{*find_app("CT"), *find_app("SP")}};
  const ModelSet dase{.dase = true};
  for (const PolicyKind policy :
       {PolicyKind::kTemporal, PolicyKind::kDaseQos}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig rc;
    rc.co_run_cycles = 200'000;
    // The first switch or repartition is still draining 20K cycles after
    // its request: a migration stall at cycle 40960, after the stride
    // snapshot at 40000.
    rc.watchdog_cycles = 20'000;
    rc.snapshot_every = 40'000;
    rc.snapshot_dir = (dir / to_string(policy)).string();
    rc.gpu.estimation_interval = 10'000;
    rc.temporal.quantum = 20'000;
    rc.qos.target_slowdown = 3.5;
    const std::string snapshot =
        (std::filesystem::path(rc.snapshot_dir) / "CT+SP.simstate").string();
    const ExperimentRunner runner(rc);
    for (const bool rerun : {false, true}) {
      SCOPED_TRACE(rerun ? "rerun" : "first run");
      ::testing::internal::CaptureStderr();
      try {
        runner.run(w, dase, policy);
        ADD_FAILURE() << "a switch draining past the watchdog let the run "
                         "finish";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimErrorKind::kMigrationStalled) << e.what();
        EXPECT_EQ(e.error_cycle(), 40'960u) << e.what();
      }
      const std::string log = ::testing::internal::GetCapturedStderr();
      EXPECT_EQ(log.find("resumed CT+SP from snapshot") != std::string::npos,
                rerun)
          << log;
      if (rerun) {
        EXPECT_NE(log.find("at cycle 40000"), std::string::npos) << log;
      }
      // The failure leaves the stride snapshot for the next rerun.
      const SnapshotHeader hdr = read_snapshot_header(snapshot);
      EXPECT_EQ(hdr.cycle, 40'000u);
      EXPECT_EQ(hdr.fingerprint,
                corun_fingerprint(rc, w, dase, policy, nullptr));
    }
  }
  std::filesystem::remove_all(dir);
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

  // Caller configuration stays out: snapshots survive a changed watchdog.
  RunConfig caller = base;
  caller.watchdog_cycles = 12'345;
  EXPECT_EQ(fingerprint_of(caller, w, dase, PolicyKind::kEven, nullptr),
            base_fp);
}

TEST(RunnerTest, FingerprintsArePinned) {
  // Snapshots and sweep checkpoint lines store these fingerprints, so a
  // changed value strands every file written before the change.
  const RunConfig rc = quick_config();
  const Workload ct_sp{{*find_app("CT"), *find_app("SP")}};
  const ModelSet dase{.dase = true};
  EXPECT_EQ(fingerprint_of(rc, ct_sp, dase, PolicyKind::kEven, nullptr),
            0xb9f08edb0b52a2efULL);
  EXPECT_EQ(fingerprint_of(rc, ct_sp, dase, PolicyKind::kDaseFair, nullptr),
            0xdf8a9ceb4f7c04acULL);
  const std::vector<int> split = {4, 12};
  EXPECT_EQ(fingerprint_of(rc, Workload{{*find_app("SD"), *find_app("SA")}},
                           dase, PolicyKind::kEven, &split),
            0x230f145cdf6e1d68ULL);
  RunConfig faulted = rc;
  faulted.faults = FaultSchedule::parse(
      "drop-resp:nth=200;stall:part=0,from=1000,until=5000;seed=7");
  const Workload quad{{*find_app("VA"), *find_app("CT"), *find_app("SD"),
                       *find_app("SN")}};
  const ModelSet all{.dase = true, .mise = true, .asm_model = true};
  EXPECT_EQ(fingerprint_of(faulted, quad, all, PolicyKind::kEven, nullptr),
            0x447a419f5db0aa97ULL);
}

TEST(RunnerTest, CyclesFromEnvParsesAndFallsBack) {
  ::setenv("GPUSIM_TEST_CYCLES", "12345", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 5), 12345u);
  // A set value that is not a positive decimal integer fails loudly
  // instead of silently running the default.
  for (const char* bad : {"not-a-number", "5e6", "0", "-1",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("GPUSIM_TEST_CYCLES", bad, 1);
    try {
      cycles_from_env("GPUSIM_TEST_CYCLES", 5);
      FAIL() << "a malformed value parsed";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
      EXPECT_EQ(detail_of(e, "variable"), "GPUSIM_TEST_CYCLES");
      EXPECT_EQ(detail_of(e, "value"), bad);
    }
  }
  ::setenv("GPUSIM_TEST_CYCLES", "", 1);
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 6), 6u);
  ::unsetenv("GPUSIM_TEST_CYCLES");
  EXPECT_EQ(cycles_from_env("GPUSIM_TEST_CYCLES", 7), 7u);
}

TEST(RunnerTest, CountFromEnvRejectsWhatAnIntCannotHold) {
  ::setenv("GPUSIM_TEST_COUNT", "2147483647", 1);
  EXPECT_EQ(count_from_env("GPUSIM_TEST_COUNT", 5), 2'147'483'647);
  // Values an int cast used to wrap: 2^31 to INT_MIN, 2^32 + 1 to 1.
  for (const char* big : {"2147483648", "4294967297"}) {
    SCOPED_TRACE(big);
    ::setenv("GPUSIM_TEST_COUNT", big, 1);
    try {
      count_from_env("GPUSIM_TEST_COUNT", 5);
      FAIL() << "a count above INT_MAX was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
      EXPECT_EQ(detail_of(e, "variable"), "GPUSIM_TEST_COUNT");
      EXPECT_EQ(detail_of(e, "value"), big);
    }
  }
  // The cycles_from_env rules still hold.
  ::setenv("GPUSIM_TEST_COUNT", "0", 1);
  EXPECT_THROW(count_from_env("GPUSIM_TEST_COUNT", 5), SimError);
  ::unsetenv("GPUSIM_TEST_COUNT");
  EXPECT_EQ(count_from_env("GPUSIM_TEST_COUNT", 7), 7);
}

}  // namespace
}  // namespace gpusim
