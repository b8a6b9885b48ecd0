#include "gpu/simulator.hpp"

#include <gtest/gtest.h>

#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

struct RecordingObserver : IntervalObserver {
  std::vector<IntervalSample> samples;
  void on_interval(const IntervalSample& sample, Gpu&) override {
    samples.push_back(sample);
  }
};

struct CountingHook : CycleHook {
  u64 calls = 0;
  Cycle last = 0;
  void on_cycle(Cycle now, Gpu&) override {
    ++calls;
    last = now;
  }
};

TEST(SimulatorTest, FiresIntervalsAtConfiguredLength) {
  GpuConfig cfg;
  cfg.estimation_interval = 10'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  RecordingObserver obs;
  sim.add_observer(&obs);
  sim.run(45'000);
  EXPECT_EQ(sim.intervals_completed(), 4u);
  ASSERT_EQ(obs.samples.size(), 4u);
  for (const auto& s : obs.samples) {
    EXPECT_EQ(s.length, 10'000u);
  }
  EXPECT_EQ(obs.samples[2].start, 20'000u);
}

TEST(SimulatorTest, CycleHooksFireEveryCycle) {
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  CountingHook hook;
  sim.add_cycle_hook(&hook);
  sim.run(5'000);
  EXPECT_EQ(hook.calls, 5'000u);
  EXPECT_EQ(hook.last, 4'999u);
}

TEST(SimulatorTest, ObserversFireInRegistrationOrder) {
  GpuConfig cfg;
  cfg.estimation_interval = 5'000;
  Simulation sim(cfg, {AppLaunch{*find_app("VA"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  std::vector<int> order;
  struct Tagger : IntervalObserver {
    Tagger(std::vector<int>* o, int t) : order(o), tag(t) {}
    std::vector<int>* order;
    int tag;
    void on_interval(const IntervalSample&, Gpu&) override {
      order->push_back(tag);
    }
  };
  Tagger a(&order, 1);
  Tagger b(&order, 2);
  sim.add_observer(&a);
  sim.add_observer(&b);
  sim.run(5'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilInstructionsStopsAtTarget) {
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("CS"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  EXPECT_TRUE(sim.run_until_instructions(0, 100'000, 1'000'000));
  EXPECT_GE(sim.gpu().instructions().total(0), 100'000u);
  EXPECT_LT(sim.gpu().now(), 200'000u) << "compute app reaches it quickly";
  // Stopped on the cycle the target was reached, not at an interval end.
  EXPECT_NE(sim.gpu().now() % cfg.estimation_interval, 0u);
}

TEST(SimulatorTest, RunUntilInstructionsHonoursCycleCap) {
  GpuConfig cfg;
  Simulation sim(cfg, {AppLaunch{*find_app("SD"), 42}});
  sim.gpu().set_partition(even_partition(16, 1));
  EXPECT_FALSE(sim.run_until_instructions(0, 1ull << 60, 20'000));
  EXPECT_EQ(sim.gpu().now(), 20'000u);
}

TEST(SimulatorTest, RunUntilInstructionsResumesExactly) {
  // A replay chasing a growing target resumes run_until_instructions many
  // times; it must stop where one call with the last target stops, with
  // the same watchdog and interval bookkeeping.  The second last target is
  // out of reach, so both stop on the cycle cap.
  GpuConfig cfg;
  cfg.estimation_interval = 10'000;
  constexpr Cycle kCap = 60'000;
  constexpr u64 kReachable = 25'001;
  for (const u64 last : {kReachable, u64{1} << 40}) {
    SCOPED_TRACE(last);
    Simulation once(cfg, {AppLaunch{*find_app("SD"), 42}});
    Simulation resumed(cfg, {AppLaunch{*find_app("SD"), 42}});
    once.gpu().set_partition(even_partition(16, 1));
    resumed.gpu().set_partition(even_partition(16, 1));

    const bool reached = once.run_until_instructions(0, last, kCap);
    EXPECT_EQ(reached, last == kReachable);
    EXPECT_GT(once.gpu().now(), 2 * cfg.estimation_interval);
    if (!reached) {
      EXPECT_EQ(once.gpu().now(), kCap);
    }
    for (u64 target = 1'234; target < kReachable; target += 1'871) {
      EXPECT_TRUE(resumed.run_until_instructions(0, target,
                                                 kCap - resumed.gpu().now()));
    }
    // One instruction short of kReachable, so the final call below resumes
    // a few cycles before the stop, with no watchdog sample in between.
    EXPECT_TRUE(resumed.run_until_instructions(0, kReachable - 1,
                                               kCap - resumed.gpu().now()));
    // A target the replay has already passed advances nothing.
    const Cycle before = resumed.gpu().now();
    EXPECT_TRUE(resumed.run_until_instructions(0, 5'000, kCap - before));
    EXPECT_EQ(resumed.gpu().now(), before);
    EXPECT_EQ(resumed.run_until_instructions(0, last,
                                             kCap - resumed.gpu().now()),
              reached);
    EXPECT_EQ(resumed.gpu().now(), once.gpu().now());
    EXPECT_EQ(resumed.state_hash(), once.state_hash());
  }
}

}  // namespace
}  // namespace gpusim
