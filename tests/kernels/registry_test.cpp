#include "kernels/app_registry.hpp"

#include <gtest/gtest.h>

#include <set>

namespace gpusim {
namespace {

TEST(RegistryTest, HasAllFifteenPaperApplications) {
  EXPECT_EQ(app_count(), 15);
  // Table III order and abbreviations.
  const std::vector<std::string> expected = {
      "BS", "AA", "CT", "CS", "QR", "VA", "SB", "SA",
      "SP", "AT", "SN", "SC", "BG", "NN", "SD"};
  const auto& apps = app_registry();
  ASSERT_EQ(apps.size(), expected.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(apps[i].abbr, expected[i]);
  }
}

TEST(RegistryTest, FindAppByAbbreviation) {
  const auto sd = find_app("SD");
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->name, "srad");
  EXPECT_FALSE(find_app("XX").has_value());
  EXPECT_FALSE(find_app("").has_value());
}

TEST(RegistryTest, Table3BandwidthValuesMatchPaper) {
  // Spot-check the utilisations the paper reports.
  EXPECT_DOUBLE_EQ(find_app("SB")->table3_bw_util, 0.68);
  EXPECT_DOUBLE_EQ(find_app("BS")->table3_bw_util, 0.65);
  EXPECT_DOUBLE_EQ(find_app("SD")->table3_bw_util, 0.40);
  EXPECT_DOUBLE_EQ(find_app("QR")->table3_bw_util, 0.14);
  EXPECT_DOUBLE_EQ(find_app("CT")->table3_bw_util, 0.16);
}

class RegistryProfileTest : public ::testing::TestWithParam<int> {};

TEST_P(RegistryProfileTest, ProfileIsInternallyConsistent) {
  const KernelProfile& p = app_registry()[GetParam()];
  EXPECT_FALSE(p.name.empty());
  EXPECT_FALSE(p.abbr.empty());
  EXPECT_GT(p.mem_fraction, 0.0);
  EXPECT_LE(p.mem_fraction, 1.0);
  EXPECT_GE(p.txns_per_mem_instr, 1);
  EXPECT_LE(p.txns_per_mem_instr, 32);
  EXPECT_GE(p.seq_locality, 0.0);
  EXPECT_LE(p.seq_locality, 1.0);
  EXPECT_GT(p.working_set_bytes, p.hot_set_bytes);
  EXPECT_GT(p.instrs_per_warp, 0u);
  EXPECT_GT(p.warps_per_block, 0);
  EXPECT_LE(p.warps_per_block, 48);
  EXPECT_GT(p.blocks_total, 0);
  EXPECT_GE(p.hot_fraction, 0.0);
  EXPECT_LT(p.hot_fraction, 1.0);
  EXPECT_GE(p.table3_bw_util, 0.1);
  EXPECT_LE(p.table3_bw_util, 0.75);
  if (p.hot_fraction > 0.0) {
    EXPECT_GT(p.hot_set_bytes, 0u);
  }
  // Mean compute run is consistent with the memory fraction.
  if (p.mem_fraction < 1.0) {
    EXPECT_NEAR(p.mean_compute_run(),
                (1.0 - p.mem_fraction) / p.mem_fraction, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, RegistryProfileTest, ::testing::Range(0, 15),
                         [](const auto& info) {
                           return app_registry()[info.param].abbr;
                         });

TEST(RegistryTest, AbbreviationsAreUnique) {
  std::set<std::string> seen;
  for (const auto& app : app_registry()) {
    EXPECT_TRUE(seen.insert(app.abbr).second) << app.abbr;
  }
}

}  // namespace
}  // namespace gpusim
