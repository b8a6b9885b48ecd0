// Idle-stretch skipping determinism.
//
// The activity engine (gpu/gpu.hpp) fast-forwards every SM and partition
// that is provably idle, up to a whole machine whose apps have run dry.
// That skipping is an invariant-preserving optimization: a run with the
// engine on must be *indistinguishable* from the per-cycle reference walk
// in every observable — interval samples field by field, final counters,
// and the exact cycle at which the progress watchdog fires.  These tests
// run the same workload both ways and diff everything.
#include "gpu/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/loop_profiler.hpp"
#include "common/sim_error.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

struct RecordingObserver : IntervalObserver {
  std::vector<IntervalSample> samples;
  void on_interval(const IntervalSample& sample, Gpu&) override {
    samples.push_back(sample);
  }
};

void expect_same_sample(const IntervalSample& a, const IntervalSample& b,
                        std::size_t idx) {
  SCOPED_TRACE("interval " + std::to_string(idx));
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.total_sms, b.total_sms);
  EXPECT_EQ(a.count_apps, b.count_apps);
  EXPECT_EQ(a.total_requests_served, b.total_requests_served);
  EXPECT_EQ(a.nonpriority_cycles, b.nonpriority_cycles);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    const AppIntervalData& x = a.apps[i];
    const AppIntervalData& y = b.apps[i];
    EXPECT_EQ(x.app, y.app);
    EXPECT_EQ(x.alpha, y.alpha);  // same integer inputs => bit-equal
    EXPECT_EQ(x.sm_cycles, y.sm_cycles);
    EXPECT_EQ(x.num_sms, y.num_sms);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.active_blocks, y.active_blocks);
    EXPECT_EQ(x.remaining_blocks, y.remaining_blocks);
    EXPECT_EQ(x.requests_served, y.requests_served);
    EXPECT_EQ(x.bank_service_time, y.bank_service_time);
    EXPECT_EQ(x.erb_miss, y.erb_miss);
    EXPECT_EQ(x.ellc_miss_scaled, y.ellc_miss_scaled);
    EXPECT_EQ(x.l2_accesses, y.l2_accesses);
    EXPECT_EQ(x.l2_hits, y.l2_hits);
    EXPECT_EQ(x.blp, y.blp);
    EXPECT_EQ(x.blp_access, y.blp_access);
    EXPECT_EQ(x.priority_served, y.priority_served);
    EXPECT_EQ(x.priority_cycles, y.priority_cycles);
    EXPECT_EQ(x.nonpriority_served, y.nonpriority_served);
    EXPECT_EQ(x.l2_accesses_priority, y.l2_accesses_priority);
    EXPECT_EQ(x.l2_accesses_nonpriority, y.l2_accesses_nonpriority);
  }
}

/// Runs `launches` for `cycles` with the engine on or off and returns the
/// simulation for counter inspection, the sample stream, and how many SM
/// advances the run made.
struct RunResult {
  std::unique_ptr<Simulation> sim;
  std::vector<IntervalSample> samples;
  u64 sm_visits = 0;
};

RunResult run_co_run(const GpuConfig& cfg, std::vector<AppLaunch> launches,
                     int num_apps, Cycle cycles, bool engine_on) {
  RunResult r;
  r.sim = std::make_unique<Simulation>(cfg, std::move(launches));
  r.sim->set_activity_sched(engine_on);
  r.sim->gpu().set_partition(
      even_partition(r.sim->gpu().num_sms(), num_apps));
  RecordingObserver obs;
  r.sim->add_observer(&obs);
  LoopProfiler profiler;
  r.sim->set_loop_profiler(&profiler);
  r.sim->run(cycles);
  r.sim->set_loop_profiler(nullptr);
  r.samples = std::move(obs.samples);
  r.sm_visits = profiler.visits(LoopProfiler::kSmAdvance);
  return r;
}

TEST(FastForwardTest, TwoAppCoRunMatchesSlowPathExactly) {
  GpuConfig cfg;
  cfg.estimation_interval = 10'000;
  const std::vector<AppLaunch> launches = {AppLaunch{*find_app("VA"), 42},
                                           AppLaunch{*find_app("SD"), 43}};
  const Cycle cycles = 60'000;

  RunResult fast = run_co_run(cfg, launches, 2, cycles, true);
  RunResult slow = run_co_run(cfg, launches, 2, cycles, false);

  EXPECT_EQ(slow.sm_visits, cycles * static_cast<u64>(cfg.num_sms));
  EXPECT_EQ(fast.sim->gpu().now(), slow.sim->gpu().now());
  ASSERT_EQ(fast.samples.size(), slow.samples.size());
  EXPECT_EQ(fast.samples.size(), cycles / cfg.estimation_interval);
  for (std::size_t i = 0; i < fast.samples.size(); ++i) {
    expect_same_sample(fast.samples[i], slow.samples[i], i);
  }
  for (AppId a = 0; a < 2; ++a) {
    EXPECT_EQ(fast.sim->gpu().instructions().total(a),
              slow.sim->gpu().instructions().total(a));
  }
}

TEST(FastForwardTest, IdleTailIsSkippedWithIdenticalCounters) {
  // A finite app (restart_on_finish off, tiny grid) runs dry well before
  // the cycle budget.  Its whole machine then sleeps under the engine, so
  // the dead tail costs almost no SM advances, and it must still accrue the
  // same idle/servicing counters as the reference walk.
  GpuConfig cfg;
  cfg.estimation_interval = 50'000;
  KernelProfile tiny = *find_app("CS");
  tiny.blocks_total = 64;
  const std::vector<AppLaunch> launches = {
      AppLaunch{tiny, 7, /*restart_on_finish=*/false}};
  const Cycle cycles = 200'000;

  RunResult fast = run_co_run(cfg, launches, 1, cycles, true);
  RunResult slow = run_co_run(cfg, launches, 1, cycles, false);

  EXPECT_EQ(slow.sm_visits, cycles * static_cast<u64>(cfg.num_sms));
  EXPECT_LT(fast.sm_visits, slow.sm_visits / 4)
      << "a finished app's tail should be provably dead";
  EXPECT_EQ(fast.sim->gpu().now(), cycles);
  EXPECT_EQ(fast.sim->gpu().now(), slow.sim->gpu().now());
  EXPECT_EQ(fast.sim->gpu().instructions().total(0),
            slow.sim->gpu().instructions().total(0));
  ASSERT_EQ(fast.samples.size(), slow.samples.size());
  EXPECT_EQ(fast.samples.size(), cycles / cfg.estimation_interval);
  for (std::size_t i = 0; i < fast.samples.size(); ++i) {
    expect_same_sample(fast.samples[i], slow.samples[i], i);
  }
}

/// Wedges the machine with a frozen partition and returns the cycle at
/// which the watchdog fires for the given stall threshold.
Cycle watchdog_fire_cycle(Cycle threshold) {
  GpuConfig cfg;
  const auto& apps = app_registry();
  Simulation sim(cfg, {AppLaunch{apps[0], 42}, AppLaunch{apps[1], 43}});
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  sim.set_watchdog(threshold);

  FaultInjector injector(FaultSchedule{}.stall_partition(0, 1'000));
  sim.gpu().set_fault_injector(&injector);

  try {
    sim.run(2'000'000);
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kWatchdogStall);
    EXPECT_TRUE(e.has_cycle());
    return e.error_cycle();
  }
  ADD_FAILURE() << "watchdog never fired on a frozen partition";
  return 0;
}

TEST(FastForwardTest, WatchdogFiresAtSameCyclesAfterLoopHoisting) {
  // Regression for the chunked run() loop: the watchdog must still sample
  // exactly at multiples of its check period, so (a) every firing cycle is
  // period-aligned and (b) doubling a period-aligned threshold delays the
  // firing by exactly the threshold delta — both held by a per-cycle check
  // and must survive the hoisting.
  constexpr Cycle kPeriod = 1024;  // kWatchdogCheckPeriod in simulator.cpp
  const Cycle fire_w = watchdog_fire_cycle(4 * kPeriod);
  const Cycle fire_2w = watchdog_fire_cycle(8 * kPeriod);
  ASSERT_GT(fire_w, 0u);
  ASSERT_GT(fire_2w, 0u);
  EXPECT_EQ(fire_w % kPeriod, 0u);
  EXPECT_EQ(fire_2w % kPeriod, 0u);
  EXPECT_EQ(fire_2w - fire_w, 4 * kPeriod);
}

}  // namespace
}  // namespace gpusim
