// SimGuard end-to-end: injected faults must be caught by the layer that
// owns them — a dropped response/request by the conservation auditor, a
// stalled partition by the progress watchdog — and a healthy run must pass
// both checks silently.  These tests run in the same (optimized) build
// mode as the bench binaries: nothing here depends on NDEBUG being unset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

const KernelProfile& memory_bound_app() {
  const KernelProfile* best = &app_registry()[0];
  for (const KernelProfile& app : app_registry()) {
    if (app.mem_fraction > best->mem_fraction) best = &app;
  }
  return *best;
}

std::vector<AppLaunch> two_app_launches() {
  const auto& apps = app_registry();
  return {AppLaunch{apps[0], 42}, AppLaunch{apps[1], 43}};
}

/// Runs `sim` for `cycles` and returns the SimError it must raise.
SimError run_expecting_error(Simulation& sim, Cycle cycles) {
  try {
    sim.run(cycles);
  } catch (const SimError& e) {
    return e;
  }
  ADD_FAILURE() << "run(" << cycles << ") finished without a SimError";
  return SimError(SimErrorKind::kHarness, "test", "no error raised");
}

std::chrono::steady_clock::time_point lapsed_deadline() {
  return std::chrono::steady_clock::now() - std::chrono::seconds(1);
}

TEST(SimGuardAudit, CleanRunConservesEveryRequest) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  Gpu& gpu = sim.gpu();

  // Mid-run, with traffic in flight everywhere, the walk must balance.
  sim.run(10'000);
  const AuditReport mid = gpu.audit_conservation();
  EXPECT_TRUE(mid.ok()) << mid.to_string();
  EXPECT_GT(mid.sent[0] + mid.sent[1], 0u);

  sim.run(50'000);
  const AuditReport end = gpu.audit_conservation();
  EXPECT_TRUE(end.ok()) << end.to_string();
  EXPECT_NO_THROW(gpu.verify_conservation());
}

TEST(SimGuardAudit, DroppedResponseIsReportedAsLeak) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  Gpu& gpu = sim.gpu();

  FaultInjector injector(FaultSchedule{}.drop_response_nth(200));
  gpu.set_fault_injector(&injector);

  sim.run(60'000);
  ASSERT_EQ(injector.responses_dropped(), 1u);

  const AuditReport report = gpu.audit_conservation();
  EXPECT_FALSE(report.ok()) << report.to_string();
  EXPECT_EQ(report.total_leaked(), 1);

  try {
    gpu.verify_conservation();
    FAIL() << "verify_conservation did not throw on a leaked response";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kConservation);
    const std::string what = e.what();
    EXPECT_NE(what.find("leaked"), std::string::npos);
  }
}

TEST(SimGuardAudit, DroppedRequestIsReportedAsLeak) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  Gpu& gpu = sim.gpu();

  FaultInjector injector(FaultSchedule{}.drop_request_nth(100));
  gpu.set_fault_injector(&injector);

  sim.run(60'000);
  ASSERT_EQ(injector.requests_dropped(), 1u);

  const AuditReport report = gpu.audit_conservation();
  EXPECT_FALSE(report.ok()) << report.to_string();
  EXPECT_EQ(report.total_leaked(), 1);
  EXPECT_THROW(gpu.verify_conservation(), SimError);
}

TEST(SimGuardWatchdog, StalledPartitionTripsWatchdogWithStateDump) {
  GpuConfig cfg;
  const KernelProfile& app = memory_bound_app();
  Simulation sim(cfg, {AppLaunch{app, 42}, AppLaunch{app, 43}});
  Gpu& gpu = sim.gpu();
  gpu.set_partition(even_partition(cfg.num_sms, 2));
  sim.set_watchdog(30'000);

  FaultInjector injector(FaultSchedule{}.stall_partition(0, 1'000));
  gpu.set_fault_injector(&injector);

  try {
    // Every warp eventually has an outstanding request into the frozen
    // partition; the whole machine wedges and the watchdog must notice.
    sim.run(2'000'000);
    FAIL() << "watchdog never fired on a frozen partition";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kWatchdogStall);
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline_state"), std::string::npos);
    EXPECT_NE(what.find("SM 0"), std::string::npos) << what;
    EXPECT_NE(what.find("partition 0"), std::string::npos) << what;
    EXPECT_NE(what.find("stalled_for_cycles"), std::string::npos);
  }
  // The wedge happened long before the cycle budget ran out.
  EXPECT_LT(gpu.now(), 500'000u);
}

TEST(SimGuardWatchdog, SilentOnHealthyRun) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  sim.set_watchdog(30'000);
  EXPECT_NO_THROW(sim.run(150'000));
}

TEST(SimGuardWatchdog, IdleGpuIsNotADeadlock) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  Gpu& gpu = sim.gpu();
  sim.run(20'000);
  // Release every SM; resident warps drain (retiring instructions, which
  // is progress), and then the GPU sits fully idle.  Neither phase may
  // trip the watchdog.
  gpu.set_partition(std::vector<AppId>(gpu.num_sms(), kInvalidApp));
  sim.set_watchdog(10'000);
  Cycle waited = 0;
  while ((gpu.migration_in_progress() || !gpu.memory_system_quiescent()) &&
         waited < 3'000'000) {
    EXPECT_NO_THROW(sim.run(10'000));
    waited += 10'000;
  }
  ASSERT_TRUE(gpu.memory_system_quiescent());
  // Idle for many multiples of the threshold: still not a deadlock.
  EXPECT_NO_THROW(sim.run(100'000));
}

// Run limits are sampled every 1024 cycles, the watchdog's cadence, so a
// limit that is already blown stops the run at cycle 1024.

TEST(SimGuardLimits, LapsedDeadlineStopsAtTheFirstSamplingPoint) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  sim.set_wall_deadline(lapsed_deadline());
  const SimError e = run_expecting_error(sim, 50'000);
  EXPECT_EQ(e.kind(), SimErrorKind::kDeadlineExceeded);
  EXPECT_EQ(e.error_cycle(), 1'024u);
  EXPECT_EQ(sim.gpu().now(), 1'024u);
}

TEST(SimGuardLimits, MemoryBudgetReportsTheRequestsServed) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  sim.set_mem_budget(1);
  const SimError e = run_expecting_error(sim, 50'000);
  EXPECT_EQ(e.kind(), SimErrorKind::kBudgetExceeded);
  bool has_served = false;
  for (const auto& [key, value] : e.details()) {
    if (key == "requests_served") {
      has_served = true;
      EXPECT_GT(std::stoull(value), 1u);
    }
  }
  EXPECT_TRUE(has_served) << e.what();
}

TEST(SimGuardLimits, ClearedCancelFlagResumesToTheSameState) {
  GpuConfig cfg;
  Simulation reference(cfg, two_app_launches());
  reference.gpu().set_partition(even_partition(cfg.num_sms, 2));
  reference.run(20'000);

  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  std::atomic<bool> cancel{true};
  sim.set_cancel(&cancel);
  const SimError e = run_expecting_error(sim, 20'000);
  EXPECT_EQ(e.kind(), SimErrorKind::kInterrupted);
  ASSERT_EQ(sim.gpu().now(), 1'024u);

  cancel.store(false);
  sim.run(20'000 - sim.gpu().now());
  EXPECT_EQ(sim.gpu().now(), 20'000u);
  EXPECT_EQ(sim.state_hash(), reference.state_hash());
}

TEST(SimGuardLimits, InterruptOutranksDeadlineAndBudget) {
  GpuConfig cfg;
  Simulation sim(cfg, two_app_launches());
  sim.gpu().set_partition(even_partition(cfg.num_sms, 2));
  std::atomic<bool> cancel{true};
  sim.set_cancel(&cancel);
  sim.set_wall_deadline(lapsed_deadline());
  sim.set_mem_budget(1);
  EXPECT_EQ(run_expecting_error(sim, 50'000).kind(),
            SimErrorKind::kInterrupted);
}

TEST(SimGuardFaults, ProbabilisticDropsAreDeterministic) {
  const FaultSchedule plan =
      FaultSchedule{}.drop_response_prob(0.25).with_seed(7);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (Cycle i = 0; i < 2'000; ++i) {
    const ResponseDecision da = a.on_response(i);
    const ResponseDecision db = b.on_response(i);
    EXPECT_EQ(static_cast<int>(da.action), static_cast<int>(db.action)) << i;
  }
  EXPECT_EQ(a.responses_dropped(), b.responses_dropped());
  EXPECT_GT(a.responses_dropped(), 0u);
}

TEST(SimGuardFaults, EveryConfigCorruptionIsRejected) {
  // corrupt_config flips exactly one field per rule; validate() must catch
  // every rule in the table before a Gpu can be built on garbage.
  const std::size_t rules = corruption_rule_count();
  ASSERT_GE(rules, 18u);
  for (u64 seed = 0; seed < rules; ++seed) {
    GpuConfig cfg;
    corrupt_config(cfg, seed);
    try {
      cfg.validate();
      ADD_FAILURE() << "corruption rule '" << corruption_rule_name(seed)
                    << "' (seed " << seed << ") passed validate()";
    } catch (const std::invalid_argument&) {
      // expected: the corrupted field was rejected
    }
  }
}

TEST(SimGuardFaults, ScheduleSpecRoundTrips) {
  const FaultSchedule plan = FaultSchedule{}
                                 .drop_response_nth(200)
                                 .drop_response_prob(0.125)
                                 .drop_request_nth(100)
                                 .stall_partition(1, 5'000, 9'000)
                                 .bit_flip(40, 17)
                                 .misroute_at(12'000)
                                 .nack_response(60, 250)
                                 .with_seed(99);
  const std::string spec = plan.to_string();
  const FaultSchedule back = FaultSchedule::parse(spec);
  EXPECT_EQ(back.to_string(), spec);
  ASSERT_EQ(back.events.size(), plan.events.size());
  EXPECT_EQ(back.seed, plan.seed);

  EXPECT_FALSE(FaultSchedule::parse("").any());
  EXPECT_THROW(FaultSchedule::parse("no-such-kind:nth=1"), SimError);
  EXPECT_THROW(FaultSchedule::parse("stall:part=0,from=10,until=5"), SimError);
  EXPECT_THROW(FaultSchedule::parse("drop-resp:prob=1.5"), SimError);
}

TEST(SimGuardFaults, InactiveScheduleInjectsNothing) {
  FaultSchedule plan;  // no events
  EXPECT_FALSE(plan.any());
  FaultInjector injector(plan);
  for (Cycle i = 0; i < 1'000; ++i) {
    EXPECT_EQ(static_cast<int>(injector.on_response(i).action),
              static_cast<int>(ResponseAction::kDeliver));
    EXPECT_FALSE(injector.should_drop_request());
  }
  EXPECT_FALSE(injector.partition_stalled(0, 1'000'000));
  EXPECT_EQ(injector.corrupt_fill_line(0x1234), 0x1234u);
  EXPECT_FALSE(injector.misroute_due(1'000'000));
}

}  // namespace
}  // namespace gpusim
