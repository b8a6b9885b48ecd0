// The paper's Section II background policy, LEFTOVER, as a static split:
// every registered kernel's grid occupies the whole GPU, so the first
// application takes every SM and later ones get none.  A zero entry in
// the SM split expresses exactly that allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

TEST(ZeroSmSplitTest, EachAppGetsItsCountAndTheRestStayIdle) {
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  for (const std::vector<int>& split :
       {std::vector<int>{16, 0}, std::vector<int>{0, 16},
        std::vector<int>{4, 3}}) {
    SCOPED_TRACE(std::to_string(split[0]) + "," + std::to_string(split[1]));
    const CoRunAssembly a =
        assemble_corun(RunConfig{}, w, ModelSet{}, PolicyKind::kEven, &split);
    const std::vector<AppId> partition = a.sim->gpu().current_partition();
    const auto sms_of = [&partition](AppId app) {
      return std::count(partition.begin(), partition.end(), app);
    };
    EXPECT_EQ(sms_of(0), split[0]);
    EXPECT_EQ(sms_of(1), split[1]);
    EXPECT_EQ(sms_of(kInvalidApp), 16 - split[0] - split[1]);
  }
}

TEST(ZeroSmSplitTest, StarvesSecondAppEndToEnd) {
  // The paper's Section II argument against LEFTOVER: a full-GPU grid
  // prevents any later application from ever running.
  RunConfig rc;
  rc.co_run_cycles = 60'000;
  ExperimentRunner runner(rc);
  const Workload w{{*find_app("AA"), *find_app("SD")}};
  const std::vector<int> leftover = {16, 0};
  const CoRunResult r =
      runner.run(w, ModelSet{}, PolicyKind::kEven, &leftover);
  EXPECT_GT(r.apps[0].instructions, 0u);
  EXPECT_EQ(r.apps[1].instructions, 0u);
  EXPECT_GE(r.apps[1].actual_slowdown, 1e5);
  EXPECT_EQ(r.apps[1].ipc_alone, runner.alone_stats(w.apps[1]).ipc);
  EXPECT_GE(r.unfairness, 1e5);
}

}  // namespace
}  // namespace gpusim
