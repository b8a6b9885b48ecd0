// End-to-end behavioural tests: the properties the paper's evaluation
// depends on must hold in the assembled system, not just per module.
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"
#include "sched/dase_fair.hpp"

namespace gpusim {
namespace {

RunConfig quick_config(Cycle cycles = 100'000) {
  RunConfig rc;
  rc.co_run_cycles = cycles;
  rc.gpu.estimation_interval = 25'000;
  return rc;
}

TEST(IntegrationTest, CoRunsAreBitReproducible) {
  ExperimentRunner a(quick_config(60'000));
  ExperimentRunner b(quick_config(60'000));
  const Workload w{{*find_app("SD"), *find_app("SA")}};
  const CoRunResult ra = a.run(w, ModelSet{.dase = true});
  const CoRunResult rb = b.run(w, ModelSet{.dase = true});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(ra.apps[i].instructions, rb.apps[i].instructions);
    EXPECT_DOUBLE_EQ(ra.apps[i].estimates.at("DASE"),
                     rb.apps[i].estimates.at("DASE"));
  }
}

TEST(IntegrationTest, ComputeBoundAppsSlowExactlyBySmRatio) {
  // Two compute-bound kernels share nothing but SMs: each gets half the
  // SMs, so each slows by almost exactly 2x and DASE predicts it.
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("CT"), *find_app("QR")}};
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  for (const AppResult& a : r.apps) {
    EXPECT_NEAR(a.actual_slowdown, 2.0, 0.05) << a.abbr;
    EXPECT_NEAR(a.estimates.at("DASE"), 2.0, 0.1) << a.abbr;
  }
  EXPECT_NEAR(r.unfairness, 1.0, 0.05);
}

TEST(IntegrationTest, MemoryIntensivePairsInterfereBeyondSmSplit) {
  // An irregular kernel (SD) sharing DRAM with a streaming one slows by
  // far more than the pure SM halving: FR-FCFS starves its row misses
  // (the paper's Fig. 2 mechanism).
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  const CoRunResult r = runner.run(w, ModelSet{});
  EXPECT_GT(r.apps[1].actual_slowdown, 2.3) << "SD is the victim";
  EXPECT_GT(r.unfairness, 1.3);
}

TEST(IntegrationTest, DaseBeatsCpuModelsOnGpuWorkloads) {
  // The paper's headline (Fig. 5): DASE's error is far below MISE/ASM.
  ExperimentRunner runner(quick_config());
  double dase = 0.0;
  double mise = 0.0;
  double asm_err = 0.0;
  const std::vector<Workload> set = {
      Workload{{*find_app("VA"), *find_app("SN")}},
      Workload{{*find_app("SP"), *find_app("BG")}},
      Workload{{*find_app("AA"), *find_app("SA")}},
  };
  for (const Workload& w : set) {
    const CoRunResult r = runner.run(
        w, ModelSet{.dase = true, .mise = true, .asm_model = true});
    dase += r.mean_error_of("DASE");
    mise += r.mean_error_of("MISE");
    asm_err += r.mean_error_of("ASM");
  }
  dase /= set.size();
  mise /= set.size();
  asm_err /= set.size();
  EXPECT_LT(dase, 0.20);
  EXPECT_GT(mise, dase * 1.5);
  EXPECT_GT(asm_err, dase * 1.5);
}

TEST(IntegrationTest, AloneBandwidthTracksTable3Ordering) {
  // Full calibration is covered by the table3 bench; here we assert the
  // coarse ordering that drives every experiment: SB (68%) must be far
  // above QR (14%), and SD sits in between.
  ExperimentRunner runner(quick_config());
  const double sb = runner.alone_stats(*find_app("SB")).bw_util;
  const double sd = runner.alone_stats(*find_app("SD")).bw_util;
  const double qr = runner.alone_stats(*find_app("QR")).bw_util;
  EXPECT_GT(sb, sd);
  EXPECT_GT(sd, qr);
  EXPECT_GT(sb, 0.55);
  EXPECT_LT(qr, 0.25);
}

TEST(IntegrationTest, DaseFairImprovesAnUnfairPair) {
  // AA+SD is reliably unfair under the even split (FR-FCFS starves SD's
  // irregular requests); DASE-Fair must narrow the gap without wrecking
  // throughput.  Long run: SM draining of saturated kernels takes a few
  // hundred kilocycles (DESIGN.md).
  RunConfig rc = quick_config(1'000'000);
  rc.gpu.estimation_interval = 50'000;
  ExperimentRunner runner(rc);
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  const CoRunResult even = runner.run(w, ModelSet{.dase = true});
  const CoRunResult fair =
      runner.run(w, ModelSet{.dase = true}, PolicyKind::kDaseFair);
  EXPECT_GT(even.unfairness, 1.4) << "pair must actually be unfair";
  EXPECT_GT(fair.repartitions, 0u) << "policy must act";
  EXPECT_LT(fair.unfairness, even.unfairness);
  EXPECT_GT(fair.harmonic_speedup, even.harmonic_speedup * 0.9);
}

TEST(IntegrationTest, FourAppWorkloadRunsAndEstimates) {
  RunConfig rc = quick_config();
  ExperimentRunner runner(rc);
  Workload w;
  for (const char* abbr : {"VA", "CT", "SD", "SN"}) {
    w.apps.push_back(*find_app(abbr));
  }
  const CoRunResult r = runner.run(w, ModelSet{.dase = true});
  ASSERT_EQ(r.apps.size(), 4u);
  for (const AppResult& a : r.apps) {
    EXPECT_GT(a.instructions, 0u);
    EXPECT_GT(a.actual_slowdown, 1.0);
    // On a quarter of the GPU, slowdowns land in a sane range.
    EXPECT_LT(a.actual_slowdown, 20.0);
  }
}

TEST(IntegrationTest, UnevenSplitsShiftSlowdowns) {
  // Fig. 8a mechanics: giving an app fewer SMs raises its slowdown.
  ExperimentRunner runner(quick_config());
  const Workload w{{*find_app("SA"), *find_app("SP")}};
  const std::vector<int> lopsided = {4, 12};
  const CoRunResult r_even = runner.run(w, ModelSet{});
  const CoRunResult r_lop =
      runner.run(w, ModelSet{}, PolicyKind::kEven, &lopsided);
  EXPECT_GT(r_lop.apps[0].actual_slowdown, r_even.apps[0].actual_slowdown);
  EXPECT_LT(r_lop.apps[1].actual_slowdown, r_even.apps[1].actual_slowdown);
}

}  // namespace
}  // namespace gpusim
