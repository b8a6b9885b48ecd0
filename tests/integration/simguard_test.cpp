// SimGuard end-to-end: injected faults must be caught by the layer that
// owns them — a dropped response/request by the conservation auditor, a
// stalled partition by the progress watchdog — and a healthy run must pass
// both checks silently.  These tests run in the same (optimized) build
// mode as the bench binaries: nothing here depends on NDEBUG being unset.
#include <gtest/gtest.h>

#include <atomic>
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
  // The wedge happened long before the 2M-cycle run would have ended.
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

// The cancel flag is sampled every 1024 cycles, the watchdog's cadence, so
// a flag that is already set stops the run at cycle 1024.

TEST(SimGuardCancel, ClearedCancelFlagResumesToTheSameState) {
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

TEST(SimGuardFaults, ProbabilisticDropsAreDeterministic) {
  const FaultSchedule plan =
      FaultSchedule{}.drop_response_prob(0.25).with_seed(7);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (Cycle i = 0; i < 2'000; ++i) {
    EXPECT_EQ(a.should_drop_response(), b.should_drop_response()) << i;
  }
  EXPECT_EQ(a.responses_dropped(), b.responses_dropped());
  EXPECT_GT(a.responses_dropped(), 0u);
}

TEST(SimGuardFaults, ScheduleSpecRoundTrips) {
  const FaultSchedule plan = FaultSchedule{}
                                 .drop_response_nth(200)
                                 .drop_response_prob(0.125)
                                 .drop_request_nth(100)
                                 .stall_partition(1, 5'000, 9'000)
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
  // Kinds only the retired fault campaigns used, keys the kind never reads
  // and drops or stalls that name no target: each is a typed config error,
  // never a run that silently injects nothing.
  for (const char* rejected :
       {"flip:nth=40,bit=17", "misroute:from=12000", "nack:nth=60,delay=250",
        "drop-req:prob=0.5", "drop-req:nth=3,part=1", "drop-resp:from=10",
        "drop-resp:nth=5,until=9", "stall:part=0,nth=3",
        "stall:part=0,from=10,prob=0.5", "drop-resp:", "drop-req:nth=0",
        "drop-resp:prob=0", "stall:from=1000", "stall:part=4294967296"}) {
    try {
      FaultSchedule::parse(std::string("drop-resp:nth=200;") + rejected);
      ADD_FAILURE() << "accepted " << rejected;
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig) << e.what();
    }
  }
}

TEST(SimGuardFaults, InactiveScheduleInjectsNothing) {
  FaultSchedule plan;  // no events
  EXPECT_FALSE(plan.any());
  FaultInjector injector(plan);
  for (Cycle i = 0; i < 1'000; ++i) {
    EXPECT_FALSE(injector.should_drop_response());
    EXPECT_FALSE(injector.should_drop_request());
  }
  EXPECT_FALSE(injector.partition_stalled(0, 1'000'000));
}

}  // namespace
}  // namespace gpusim
