// Harness-level contracts of the policy safety governor (DESIGN.md §14):
// a healthy co-run is byte-identical with the governor on or off, breaker
// interventions surface through ExperimentRunner results, adversarial
// fault schedules never push an invalid or low-confidence partition into
// the GPU, and governor state rides the full-simulation snapshot walk —
// including snapshots exchanged between --governor and --no-governor runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/flight_recorder.hpp"
#include "common/sim_error.hpp"
#include "dase/dase_model.hpp"
#include "gpu/gpu.hpp"
#include "gpu/simulator.hpp"
#include "harness/chaos.hpp"
#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"
#include "kernels/workload_sets.hpp"
#include "sched/governor.hpp"

namespace gpusim {
namespace {

Workload unfair_pair() {
  Workload w;
  w.apps.push_back(*find_app("VA"));
  w.apps.push_back(*find_app("SD"));
  return w;
}

RunConfig quick_rc(bool governor_on) {
  RunConfig rc;
  rc.co_run_cycles = 60'000;
  rc.gpu.estimation_interval = 10'000;
  rc.governor = governor_on;
  return rc;
}

bool has_event(const Gpu& gpu, FrEvent kind) {
  for (const FlightEvent& e : gpu.flight_recorder().events_in_order()) {
    if (e.kind == kind) return true;
  }
  return false;
}

/// Records the post-boundary world every interval: the actual SM owners,
/// the estimator's sanitizer counter, and the boundary cycle.  Attached
/// after the governor so it sees exactly what the next epoch starts from.
class PartitionWatch final : public IntervalObserver {
 public:
  explicit PartitionWatch(const SlowdownEstimator* est) : est_(est) {}

  struct Tick {
    Cycle cycle = 0;
    u64 sanitized = 0;
    std::vector<AppId> partition;
  };
  std::vector<Tick> ticks;

  void on_interval(const IntervalSample&, Gpu& gpu) override {
    ticks.push_back(
        {gpu.now(), est_->sanitized_estimates(), gpu.current_partition()});
  }

 private:
  const SlowdownEstimator* est_;
};

// With no pathology to intervene on, an enabled governor must be
// invisible: the simulated GPU evolves bit-identically with the governor
// on or off, for both the static even split and the live DASE-Fair loop.
TEST(GovernorHarnessTest, HealthyRunIsByteIdenticalWithGovernorOnOrOff) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};
  for (const PolicyKind policy : {PolicyKind::kEven, PolicyKind::kDaseFair}) {
    CoRunAssembly on = assemble_corun(quick_rc(true), workload, models, policy);
    CoRunAssembly off =
        assemble_corun(quick_rc(false), workload, models, policy);
    on.sim->run(60'000);
    off.sim->run(60'000);
    EXPECT_EQ(on.sim->gpu().state_hash(), off.sim->gpu().state_hash())
        << "policy " << to_string(policy);
    EXPECT_EQ(on.governor->interventions(), 0u) << "policy "
                                                << to_string(policy);
  }
}

// A static 15/1 split pins the second app at the min-SM floor; the
// starvation breaker must trip and the intervention must surface through
// the ExperimentRunner result exactly when the governor is enabled.
TEST(GovernorHarnessTest, StarvedSplitSurfacesInterventionsThroughTheRunner) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};
  const std::vector<int> split = {15, 1};

  RunConfig rc = quick_rc(true);
  rc.co_run_cycles = 40'000;
  rc.gpu.governor_starvation_window = 2;
  ExperimentRunner on(rc);
  const CoRunResult guarded =
      on.run(workload, models, PolicyKind::kEven, &split);
  EXPECT_GE(guarded.governor_interventions, 1u);

  rc.governor = false;
  ExperimentRunner off(rc);
  const CoRunResult unguarded =
      off.run(workload, models, PolicyKind::kEven, &split);
  EXPECT_EQ(unguarded.governor_interventions, 0u);
}

// With the trip allowance at one, the first starvation trip must abandon
// the split for the even-partition fallback and say so on the recorder.
TEST(GovernorHarnessTest, StarvationFallbackAbandonsTheSplitForEven) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};
  const std::vector<int> split = {15, 1};

  RunConfig rc = quick_rc(true);
  rc.gpu.governor_starvation_window = 2;
  rc.gpu.governor_breaker_trips = 1;
  rc.gpu.flight_recorder_events = 4096;
  CoRunAssembly a = assemble_corun(rc, workload, models, PolicyKind::kEven,
                                   &split);
  a.sim->run(60'000);

  EXPECT_TRUE(a.governor->fell_back_even());
  EXPECT_GE(a.governor->breaker_trips(), 1u);
  EXPECT_GE(a.governor->fallbacks(), 1u);
  EXPECT_TRUE(has_event(a.sim->gpu(), FrEvent::kGovBreakerTrip));
  EXPECT_TRUE(has_event(a.sim->gpu(), FrEvent::kGovFallbackEven));
  // The starved app is being handed SMs back (drains permitting).
  EXPECT_GE(a.sim->gpu().sms_assigned(1), 1);
}

// Adversarial schedule — windowed partition stalls, a NACK and a dropped
// response with the modeled retry recovery armed.  Whatever the estimator
// makes of that, the partition visible at every epoch boundary must stay
// structurally valid, and no migration may start on an epoch whose
// estimates needed the sanitizer.
TEST(GovernorHarnessTest, AdversarialScheduleNeverYieldsAnInvalidPartition) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};

  RunConfig rc = quick_rc(true);
  rc.co_run_cycles = 100'000;
  rc.gpu.flight_recorder_events = 4096;
  rc.gpu.mshr_retry_enabled = true;
  rc.gpu.mshr_retry_timeout = 10'000;
  rc.faults = FaultSchedule{}
                  .stall_partition(1, 20'000, 28'000)
                  .stall_partition(3, 45'000, 52'000)
                  .nack_response(30'000, 400)
                  .drop_response_nth(500);

  CoRunAssembly a = assemble_corun(rc, workload, models, PolicyKind::kDaseFair);
  PartitionWatch watch(a.dase.get());
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

  // No migration may have been requested at a boundary whose epoch the
  // sanitizer had to repair (the governor holds the last-good partition).
  for (std::size_t k = 1; k < watch.ticks.size(); ++k) {
    if (watch.ticks[k].sanitized == watch.ticks[k - 1].sanitized) continue;
    for (const FlightEvent& e :
         a.sim->gpu().flight_recorder().events_in_order()) {
      if (e.kind == FrEvent::kMigrationRequested) {
        EXPECT_NE(e.cycle, watch.ticks[k].cycle)
            << "migration forwarded on a sanitized epoch";
      }
    }
  }
}

// Governor state (epochs, last-good partition, breaker counters) rides
// the full-simulation snapshot: restoring into a freshly assembled co-run
// reproduces the byte stream and the continued run exactly.
TEST(GovernorHarnessTest, GovernorStateRidesTheFullSimulationSnapshot) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};

  CoRunAssembly a =
      assemble_corun(quick_rc(true), workload, models, PolicyKind::kDaseFair);
  a.sim->run(60'000);
  const std::vector<u8> bytes = a.sim->snapshot();

  CoRunAssembly b =
      assemble_corun(quick_rc(true), workload, models, PolicyKind::kDaseFair);
  b.sim->restore(bytes);
  EXPECT_EQ(a.sim->state_hash(), b.sim->state_hash());
  EXPECT_EQ(bytes, b.sim->snapshot());

  a.sim->run(20'000);
  b.sim->run(20'000);
  EXPECT_EQ(a.sim->state_hash(), b.sim->state_hash());
}

// The governor observer is attached (and serialized) whether enabled or
// not, so a snapshot taken under --governor restores under --no-governor
// and vice versa: the flag is caller configuration, not simulated state.
TEST(GovernorHarnessTest, SnapshotsInterchangeBetweenGovernorOnAndOff) {
  const Workload workload = unfair_pair();
  const ModelSet models{.dase = true};

  for (const bool first_on : {true, false}) {
    CoRunAssembly first = assemble_corun(quick_rc(first_on), workload, models,
                                         PolicyKind::kDaseFair);
    first.sim->run(40'000);
    const std::vector<u8> bytes = first.sim->snapshot();

    CoRunAssembly second = assemble_corun(quick_rc(!first_on), workload,
                                          models, PolicyKind::kDaseFair);
    ASSERT_NO_THROW(second.sim->restore(bytes))
        << "snapshot taken with governor " << (first_on ? "on" : "off");
    EXPECT_EQ(second.sim->gpu().now(), 40'000u);
    ASSERT_NO_THROW(second.sim->run(20'000));
    EXPECT_EQ(second.sim->gpu().now(), 60'000u);
  }
}

// A partition stalled forever must land a governed chaos job in the hang
// class — the one bucket the triage runbook sends to the drain/watchdog
// page — never in "recovered" or an unclassified escape.
TEST(GovernorHarnessTest, StallForeverChaosJobLandsInTheHangClass) {
  ChaosOptions opts;
  opts.rc.co_run_cycles = 40'000;
  opts.recovery = false;
  opts.rc.governor = true;
  const FaultSchedule wedge = FaultSchedule{}.stall_partition(0, 2'000, 0);

  const ChaosJobResult r =
      run_chaos_job(opts, unfair_pair(), /*dase_fair=*/true, wedge);
  EXPECT_EQ(r.outcome, ChaosOutcome::kHang) << r.detail;
  EXPECT_FALSE(r.detail.empty());
}

}  // namespace
}  // namespace gpusim
