// Activity-tracked cycle engine equivalence suite.
//
// The engine (gpu/gpu.hpp) is an execution strategy, not a model change:
// a run with it enabled must be bit-identical to the per-cycle reference
// walk in every piece of simulated state.  These tests sweep randomized
// configs — SM/partition counts, queue depths, random workload
// mixes — through the divergence auditor with the engine on one side and
// off on the other, and rotate through the hazardous scenarios: fault
// schedules (which pin the engine off mid-construction), mid-run
// repartitions (SM drains handed over by the engine), snapshot/restore
// (synced-cursor reset on load), and two cycle hooks — the MISE/ASM
// priority epochs and whole-GPU turns handed over through
// Gpu::set_partition.  Any hash mismatch names the component.
#include "gpu/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/priority_epochs.hpp"
#include "common/fault_injection.hpp"
#include "common/loop_profiler.hpp"
#include "common/rng.hpp"
#include "harness/divergence.hpp"
#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

struct RandomCase {
  GpuConfig cfg;
  std::vector<AppLaunch> launches;
  int num_apps = 0;
  Cycle cycles = 0;
  Cycle stride = 0;
  std::string fault_spec;  // empty = no faults
};

RandomCase make_case(u64 seed, bool with_faults) {
  Rng rng(seed);
  RandomCase c;
  c.cfg.num_sms = 8 + static_cast<int>(rng.next_below(9));        // 8..16
  c.cfg.num_partitions = 2 + static_cast<int>(rng.next_below(5));  // 2..6
  c.cfg.noc_queue_depth = 4 << rng.next_below(3);                  // 4/8/16
  c.cfg.partition_resp_queue_depth =
      64 << rng.next_below(3);                                     // 64..256
  // Discarded draw: keeps every later draw, and so each random config,
  // where it has always been.
  (void)rng.next_bool(0.5);
  c.cfg.estimation_interval = 5'000 + 1'000 * rng.next_below(6);
  c.num_apps = 2 + static_cast<int>(rng.next_below(3));            // 2..4
  const auto& registry = app_registry();
  for (int i = 0; i < c.num_apps; ++i) {
    const KernelProfile& profile = registry[rng.next_below(registry.size())];
    c.launches.push_back(AppLaunch{profile, 100 + seed * 8 + i});
  }
  c.cycles = 30'000 + 5'000 * rng.next_below(7);                   // 30k..60k
  c.stride = 3'000 + 500 * rng.next_below(5);
  if (with_faults) {
    const u64 nth = 100 + rng.next_below(300);
    const u64 part = rng.next_below(c.cfg.num_partitions);
    const u64 from = 1'000 + rng.next_below(5'000);
    const u64 until = from + 2'000 + rng.next_below(6'000);
    c.fault_spec = "drop-resp:nth=" + std::to_string(nth) +
                   ";stall:part=" + std::to_string(part) +
                   ",from=" + std::to_string(from) +
                   ",until=" + std::to_string(until) +
                   ";seed=" + std::to_string(1 + rng.next_below(1000));
  }
  // Drawn after everything else, so every earlier config stays where it
  // was.  Small L1 MSHRs keep SMs waiting on a full MSHR, the SM state the
  // engine sleeps through until a response arrives; 64 warp contexts fill
  // the warp masks.
  c.cfg.l1_mshr_entries = 2 + static_cast<int>(rng.next_below(31));  // 2..32
  c.cfg.max_warps_per_sm = rng.next_bool(0.5) ? 48 : 64;
  // Drawn last for the same reason.  Half the cases get a 2..8-entry
  // response queue, which fills: its partition then waits for a freed
  // slot, the wake the engine must not miss.
  if (rng.next_bool(0.5)) {
    c.cfg.partition_resp_queue_depth =
        2 + static_cast<int>(rng.next_below(7));                   // 2..8
  }
  return c;
}

/// Gives the whole GPU to one application at a time: every `quantum`
/// cycles, once the previous handover has drained, every SM goes to the
/// next application through Gpu::set_partition.
class WholeGpuTurns final : public CycleHook {
 public:
  explicit WholeGpuTurns(Cycle quantum) : quantum_(quantum) {}

  void on_cycle(Cycle now, Gpu& gpu) override {
    if (now < next_turn_ || gpu.migration_in_progress()) return;
    gpu.set_partition(std::vector<AppId>(gpu.num_sms(), owner_));
    owner_ = static_cast<AppId>((owner_ + 1) % gpu.num_apps());
    next_turn_ = now + quantum_;
  }

 private:
  const Cycle quantum_;
  AppId owner_ = 0;
  Cycle next_turn_ = 0;
};

std::unique_ptr<Simulation> make_sim(const RandomCase& c, bool engine_on) {
  auto sim = std::make_unique<Simulation>(c.cfg, c.launches);
  sim->set_activity_sched(engine_on);
  sim->gpu().set_partition(even_partition(sim->gpu().num_sms(), c.num_apps));
  return sim;
}

void expect_equivalent_finals(Simulation& a, Simulation& b,
                              const RandomCase& c) {
  EXPECT_EQ(a.gpu().now(), b.gpu().now());
  EXPECT_EQ(a.state_hash(), b.state_hash());
  for (AppId app = 0; app < static_cast<AppId>(c.num_apps); ++app) {
    EXPECT_EQ(a.gpu().instructions().total(app),
              b.gpu().instructions().total(app))
        << "app " << static_cast<int>(app);
  }
}

TEST(ActivitySchedTest, RandomConfigsAuditCleanEngineOnVsOff) {
  // Scenario rotation by index: 0 plain, 1 fault schedule, 2 mid-run
  // repartition, 3 snapshot/restore, 4 priority-epoch hook, 5 whole-GPU
  // turns hook — six configs each.
  constexpr int kScenarios = 6;
  constexpr int kCases = 6 * kScenarios;
  for (int i = 0; i < kCases; ++i) {
    const int scenario = i % kScenarios;
    SCOPED_TRACE("case " + std::to_string(i) + " scenario " +
                 std::to_string(scenario));
    RandomCase c = make_case(7'000 + i, scenario == 1);
    if (scenario == 5) {
      // Short blocks, so each turn's drain completes and hands every SM
      // over instead of draining all run long.
      for (AppLaunch& l : c.launches) l.profile.instrs_per_warp = 40;
    }

    auto a = make_sim(c, /*engine_on=*/true);
    auto b = make_sim(c, /*engine_on=*/false);

    // Each side gets its own injector built from the same spec; identical
    // schedules and seeds inject identical faults.
    std::unique_ptr<FaultInjector> inj_a;
    std::unique_ptr<FaultInjector> inj_b;
    if (!c.fault_spec.empty()) {
      const FaultSchedule schedule = FaultSchedule::parse(c.fault_spec);
      inj_a = std::make_unique<FaultInjector>(schedule);
      inj_b = std::make_unique<FaultInjector>(schedule);
      a->gpu().set_fault_injector(inj_a.get());
      b->gpu().set_fault_injector(inj_b.get());
    }

    // Each side also gets its own instance of the scenario's cycle hook.
    // The epochs flip DRAM priority several times per interval; the turns
    // drain and hand over every SM at each of their ~3 switches.
    std::vector<std::unique_ptr<CycleHook>> hooks;
    for (Simulation* sim : {a.get(), b.get()}) {
      if (scenario == 4) {
        hooks.push_back(std::make_unique<PriorityEpochDriver>(
            PriorityEpochDriver::with_defaults(c.cfg, c.num_apps)));
      } else if (scenario == 5) {
        hooks.push_back(std::make_unique<WholeGpuTurns>(c.cycles / 4));
      } else {
        break;
      }
      sim->add_cycle_hook(hooks.back().get());
    }

    const Cycle half = c.cycles / 2;
    if (scenario == 2) {
      // Repartition mid-run: the engine must resync accruals, rebuild its
      // wake state, and hand each drained SM over on the same cycle as the
      // per-cycle walk.
      DivergenceReport first = audit_divergence(*a, *b, half, c.stride);
      ASSERT_FALSE(first.diverged) << first.to_string();
      std::vector<AppId> uneven = even_partition(c.cfg.num_sms, c.num_apps);
      uneven.front() = static_cast<AppId>(c.num_apps - 1);  // donate one SM
      a->gpu().set_partition(uneven);
      b->gpu().set_partition(uneven);
      DivergenceReport second =
          audit_divergence(*a, *b, c.cycles - half, c.stride);
      ASSERT_FALSE(second.diverged) << second.to_string();
    } else if (scenario == 3) {
      // Snapshot the engine-on run mid-flight and restore it into a fresh
      // simulation; the restored run must stay in lockstep with the
      // never-interrupted engine-off run.
      DivergenceReport first = audit_divergence(*a, *b, half, c.stride);
      ASSERT_FALSE(first.diverged) << first.to_string();
      const std::vector<u8> bytes = a->snapshot();
      auto restored = make_sim(c, /*engine_on=*/true);
      restored->restore(bytes);
      DivergenceReport second =
          audit_divergence(*restored, *b, c.cycles - half, c.stride);
      ASSERT_FALSE(second.diverged) << second.to_string();
      expect_equivalent_finals(*restored, *b, c);
      continue;
    } else {
      DivergenceReport report = audit_divergence(*a, *b, c.cycles, c.stride);
      ASSERT_FALSE(report.diverged) << report.to_string();
    }
    expect_equivalent_finals(*a, *b, c);
  }
}

TEST(ActivitySchedTest, EngineToggleMidRunResyncsExactly) {
  // Flipping the engine off and back on mid-run is a pure execution-strategy
  // change: the toggled run must match an engine-off run cycle for cycle.
  const RandomCase c = make_case(9'001, /*with_faults=*/false);
  auto a = make_sim(c, /*engine_on=*/true);
  auto b = make_sim(c, /*engine_on=*/false);
  const Cycle third = c.cycles / 3;
  DivergenceReport r1 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r1.diverged) << r1.to_string();
  a->set_activity_sched(false);
  DivergenceReport r2 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r2.diverged) << r2.to_string();
  a->set_activity_sched(true);
  DivergenceReport r3 = audit_divergence(*a, *b, third, c.stride);
  ASSERT_FALSE(r3.diverged) << r3.to_string();
  expect_equivalent_finals(*a, *b, c);
}

TEST(ActivitySchedTest, EngineSkipsIdleSmsWithAHookAttached) {
  // Guard against the engine silently disabling itself, in particular
  // under a per-cycle hook.  On the memory-bound SD+SA pair most SMs wait
  // on DRAM most cycles, so an engine-on run visits far fewer SMs than the
  // per-cycle walk's cycles x SMs.
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("SD"), 1},
                       AppLaunch{*find_app("SA"), 2}});
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  PriorityEpochDriver epochs = PriorityEpochDriver::with_defaults(cfg, 2);
  sim.add_cycle_hook(&epochs);
  LoopProfiler profiler;
  sim.set_loop_profiler(&profiler);
  const Cycle cycles = 100'000;
  sim.run(cycles);
  EXPECT_LT(profiler.visits(LoopProfiler::kSmAdvance),
            cycles * static_cast<u64>(cfg.num_sms) / 4);
}

TEST(ActivitySchedTest, HotLinesBehindAFullMshrAuditClean) {
  // A 2-entry L1 MSHR stays full, so transactions to a few hot lines the
  // L1 holds queue up behind misses waiting for an entry; an SM may sleep
  // only while its head transaction can neither hit the L1 nor merge.
  GpuConfig cfg;
  cfg.l1_mshr_entries = 2;
  KernelProfile hot = *find_app("SA");
  hot.txns_per_mem_instr = 2;
  hot.hot_fraction = 0.9;
  hot.hot_set_bytes = 4 * 128;
  const std::vector<AppLaunch> launches = {AppLaunch{hot, 11},
                                           AppLaunch{*find_app("QR"), 12}};
  Simulation a(cfg, launches);
  Simulation b(cfg, launches);
  b.set_activity_sched(false);
  a.gpu().set_partition(even_partition(cfg.num_sms, 2));
  b.gpu().set_partition(even_partition(cfg.num_sms, 2));
  const DivergenceReport report = audit_divergence(a, b, 40'000, 2'000);
  ASSERT_FALSE(report.diverged) << report.to_string();
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

TEST(ActivitySchedTest, EngineSleepsSmsWaitingOnAFullMshr) {
  // VA and SB issue misses faster than their 32 L1 MSHR entries drain, so
  // their SMs spend most cycles with the next miss waiting for an entry.
  // Only a response can free one, so the engine sleeps those SMs until one
  // arrives instead of visiting all 16 every cycle.
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 1},
                       AppLaunch{*find_app("SB"), 2}});
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  LoopProfiler profiler;
  sim.set_loop_profiler(&profiler);
  const Cycle cycles = 150'000;
  sim.run(cycles);
  EXPECT_LT(profiler.visits(LoopProfiler::kSmAdvance), 3 * cycles);
}

TEST(ActivitySchedTest, EngineSleepsSmsThroughComputeRuns) {
  // CS and QR issue 46-124 compute instructions between memory
  // instructions and rarely fill an MSHR, so the per-cycle walk's 16 SM
  // visits per cycle mostly issue one compute instruction of the greedy
  // warp.  The engine sleeps an SM through such a run and visits it when
  // it issues something else.
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("CS"), 1},
                       AppLaunch{*find_app("QR"), 2}});
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  LoopProfiler profiler;
  sim.set_loop_profiler(&profiler);
  const Cycle cycles = 150'000;
  sim.run(cycles);
  EXPECT_LT(profiler.visits(LoopProfiler::kSmAdvance), 2 * cycles);
}

// Audits a co-run assembled as ExperimentRunner::run builds it (models,
// policy, telemetry hub): the activity engine against the per-cycle walk.
// Returns the engine-side assembly for further checks.
CoRunAssembly audit_assembled(const std::string& first,
                              const std::string& second,
                              const ModelSet& models, PolicyKind policy,
                              Cycle cycles) {
  RunConfig rc;
  rc.co_run_cycles = cycles;
  const Workload workload{{*find_app(first), *find_app(second)}};
  CoRunAssembly engine = assemble_corun(rc, workload, models, policy);
  const CoRunAssembly walk = assemble_corun(rc, workload, models, policy);
  walk.sim->set_activity_sched(false);
  const DivergenceReport report =
      audit_divergence(*engine.sim, *walk.sim, cycles, 10'000);
  EXPECT_FALSE(report.diverged) << report.to_string();
  return engine;
}

TEST(ActivitySchedTest, ComputeRunsAuditCleanThroughDrains) {
  // The paper's Fig. 9 pair under DASE-Fair: CT's and SP's SMs sleep
  // through compute runs while repartitions drain SMs and hand them over.
  const CoRunAssembly engine =
      audit_assembled("CT", "SP", ModelSet{.dase = true},
                      PolicyKind::kDaseFair, 300'000);
  EXPECT_NE(engine.sim->gpu().current_partition(),
            even_partition(engine.sim->gpu().num_sms(), 2))
      << "DASE-Fair never moved an SM, so no drain was audited";
}

TEST(ActivitySchedTest, ComputeRunsAuditCleanThroughEpochFlips) {
  // The MISE/ASM priority-epoch hook settles and wakes every component at
  // each DRAM-priority flip, cutting compute runs short mid-sleep.
  audit_assembled("CS", "QR",
                  ModelSet{.dase = true, .mise = true, .asm_model = true},
                  PolicyKind::kEven, 150'000);
}

TEST(ActivitySchedTest, FreedQueueSlotsWakeTheirSourcesExactly) {
  // 2-deep crossbar ports and a 2-deep partition response queue keep the
  // crossbars' source queues full.  An SM then sleeps on a transaction
  // that waits for an out-queue slot, and a partition on fills and hits
  // that wait for a response-queue slot; a crossbar pop that frees the
  // slot must wake the source for the next cycle, exactly when the walk
  // would act.
  GpuConfig cfg;
  cfg.noc_queue_depth = 2;
  cfg.partition_resp_queue_depth = 2;
  const std::vector<AppLaunch> launches = {AppLaunch{*find_app("SD"), 21},
                                           AppLaunch{*find_app("SA"), 22}};
  Simulation a(cfg, launches);
  Simulation b(cfg, launches);
  b.set_activity_sched(false);
  a.gpu().set_partition(even_partition(cfg.num_sms, 2));
  b.gpu().set_partition(even_partition(cfg.num_sms, 2));
  const DivergenceReport report = audit_divergence(a, b, 60'000, 2'000);
  ASSERT_FALSE(report.diverged) << report.to_string();
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

}  // namespace
}  // namespace gpusim
