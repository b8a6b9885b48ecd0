// Kill/resume under fault: the injector's progress counters and RNG ride
// the snapshot walk, so an nth-event fault armed before a snapshot fires
// exactly once on the resumed machine — at the same event, leaving the
// resumed run hash-identical to the uninterrupted one.  Restoring into a
// simulation whose injector attachment differs from the snapshot is a
// typed error, not a silent desync.
#include <gtest/gtest.h>

#include <vector>

#include "common/fault_injection.hpp"
#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

std::vector<AppLaunch> two_app_launches() {
  const auto& apps = app_registry();
  return {AppLaunch{apps[0], 42}, AppLaunch{apps[1], 43}};
}

std::unique_ptr<Simulation> make_sim(FaultInjector* injector) {
  GpuConfig cfg;
  auto sim = std::make_unique<Simulation>(cfg, two_app_launches());
  sim->gpu().set_partition(even_partition(cfg.num_sms, 2));
  if (injector != nullptr) sim->gpu().set_fault_injector(injector);
  return sim;
}

/// Response count after `cycles` on a healthy machine — used to aim an
/// nth-event fault past a snapshot point without hard-coding flow rates.
u64 responses_after(Cycle cycles) {
  FaultInjector probe((FaultSchedule()));
  auto sim = make_sim(&probe);
  sim->run(cycles);
  return probe.responses_seen();
}

TEST(FaultSnapshotTest, ArmedFaultFiresOnceOnTheResumedMachine) {
  const Cycle kSnapshotAt = 8'000;
  const Cycle kTail = 30'000;
  const u64 seen = responses_after(kSnapshotAt);
  // The drop lands after the snapshot point but well inside the tail.
  const FaultSchedule sched = FaultSchedule{}.drop_response_nth(seen + 500);

  FaultInjector ia(sched);
  auto a = make_sim(&ia);
  a->run(kSnapshotAt);
  ASSERT_EQ(ia.responses_dropped(), 0u) << "fault fired before the snapshot";
  const std::vector<u8> bytes = a->snapshot();
  a->run(kTail);
  ASSERT_EQ(ia.responses_dropped(), 1u);

  // Fresh machine + fresh injector from the same schedule: restore must
  // put the response counter back, so the fault fires at the same event —
  // once, not zero times and not twice.
  FaultInjector ib(sched);
  auto b = make_sim(&ib);
  b->restore(bytes);
  EXPECT_EQ(ib.responses_seen(), seen);
  b->run(kTail);
  EXPECT_EQ(ib.responses_dropped(), 1u);
  EXPECT_EQ(a->state_hash(), b->state_hash());
  EXPECT_EQ(a->gpu().audit_conservation().total_leaked(),
            b->gpu().audit_conservation().total_leaked());
}

TEST(FaultSnapshotTest, AttachmentMismatchIsRejectedBothWays) {
  FaultInjector injector(FaultSchedule{}.drop_response_nth(1'000'000));
  auto with_injector = make_sim(&injector);
  auto without = make_sim(nullptr);
  with_injector->run(2'000);
  without->run(2'000);

  const std::vector<u8> faulted_bytes = with_injector->snapshot();
  const std::vector<u8> clean_bytes = without->snapshot();

  auto bare = make_sim(nullptr);
  try {
    bare->restore(faulted_bytes);
    FAIL() << "restored a faulted snapshot without an injector attached";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
  }

  FaultInjector other(FaultSchedule{}.drop_response_nth(1'000'000));
  auto armed = make_sim(&other);
  try {
    armed->restore(clean_bytes);
    FAIL() << "restored a clean snapshot into an injector-armed simulation";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << e.what();
  }
}

}  // namespace
}  // namespace gpusim
