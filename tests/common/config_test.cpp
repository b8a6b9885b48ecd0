#include "common/config.hpp"

#include <gtest/gtest.h>

namespace gpusim {
namespace {

TEST(ConfigTest, DefaultsMatchPaperTableII) {
  GpuConfig cfg;
  EXPECT_EQ(cfg.num_sms, 16);
  EXPECT_EQ(cfg.max_warps_per_sm, 48);
  EXPECT_EQ(cfg.warp_size, 32);
  EXPECT_EQ(cfg.num_partitions, 6);
  EXPECT_EQ(cfg.banks_per_mc, 16);
  EXPECT_EQ(cfg.t_rp_dram, 12);
  EXPECT_EQ(cfg.t_rcd_dram, 12);
  EXPECT_EQ(cfg.line_bytes, 128);
  EXPECT_EQ(cfg.l1_size_bytes, 16 * 1024);
  EXPECT_EQ(cfg.l1_assoc, 4);
  // 768KB of L2 spread over 6 partitions.
  EXPECT_EQ(cfg.l2_partition_bytes * cfg.num_partitions, 768 * 1024);
  EXPECT_EQ(cfg.estimation_interval, 50'000u);
  EXPECT_DOUBLE_EQ(cfg.requestmax_factor, 0.6);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, DramToSmScalesByClockRatio) {
  GpuConfig cfg;
  // 1400/924 ~= 1.515: 12 DRAM cycles -> 18 SM cycles.
  EXPECT_EQ(cfg.t_rp(), 18u);
  EXPECT_EQ(cfg.t_rcd(), 18u);
  EXPECT_EQ(cfg.t_cl(), 18u);
  EXPECT_EQ(cfg.t_burst(), 6u);
  EXPECT_EQ(cfg.dram_to_sm(0), 0u);
}

TEST(ConfigTest, CacheGeometryDerivation) {
  GpuConfig cfg;
  EXPECT_EQ(cfg.l1_num_sets(), 16 * 1024 / (128 * 4));
  EXPECT_EQ(cfg.l2_num_sets(), 128 * 1024 / (128 * 8));
  EXPECT_EQ(cfg.lines_per_row(), 2048u / 128u);
}

TEST(ConfigTest, TimePerRequestIsBurstTime) {
  GpuConfig cfg;
  EXPECT_EQ(cfg.time_per_request(), cfg.t_burst());
}

// The validate() coverage table: at least one row per GpuConfig::validate()
// rule, so a rule added there without a row here goes untested.
struct BadConfigCase {
  const char* name;
  void (*mutate)(GpuConfig&);
};

class ConfigValidationTest : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ConfigValidationTest, RejectsInvalidConfiguration) {
  GpuConfig cfg;
  GetParam().mutate(cfg);
  EXPECT_THROW(cfg.validate(), std::invalid_argument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllInvalidFields, ConfigValidationTest,
    ::testing::Values(
        BadConfigCase{"zero_sms", [](GpuConfig& c) { c.num_sms = 0; }},
        // Port bitmasks are 64 bits wide.
        BadConfigCase{"too_many_sms", [](GpuConfig& c) { c.num_sms = 65; }},
        BadConfigCase{"zero_warps",
                      [](GpuConfig& c) { c.max_warps_per_sm = 0; }},
        BadConfigCase{"too_many_warps",
                      [](GpuConfig& c) { c.max_warps_per_sm = 65; }},
        BadConfigCase{"zero_blocks",
                      [](GpuConfig& c) { c.max_blocks_per_sm = 0; }},
        BadConfigCase{"zero_partitions",
                      [](GpuConfig& c) { c.num_partitions = 0; }},
        BadConfigCase{"too_many_partitions",
                      [](GpuConfig& c) { c.num_partitions = 65; }},
        BadConfigCase{"zero_banks", [](GpuConfig& c) { c.banks_per_mc = 0; }},
        // Bank bitmasks are 32 bits wide.
        BadConfigCase{"too_many_banks",
                      [](GpuConfig& c) { c.banks_per_mc = 64; }},
        BadConfigCase{"odd_line_bytes",
                      [](GpuConfig& c) { c.line_bytes = 100; }},
        BadConfigCase{"short_line_bytes",
                      [](GpuConfig& c) { c.line_bytes = 16; }},
        BadConfigCase{"l1_not_divisible",
                      [](GpuConfig& c) { c.l1_size_bytes = 1000; }},
        BadConfigCase{"l2_not_divisible",
                      [](GpuConfig& c) { c.l2_partition_bytes = 100; }},
        BadConfigCase{"row_not_multiple",
                      [](GpuConfig& c) { c.row_bytes = 200; }},
        BadConfigCase{"atd_zero",
                      [](GpuConfig& c) { c.atd_sampled_sets = 0; }},
        BadConfigCase{"atd_too_many",
                      [](GpuConfig& c) { c.atd_sampled_sets = 1 << 20; }},
        BadConfigCase{"zero_interval",
                      [](GpuConfig& c) { c.estimation_interval = 0; }},
        BadConfigCase{"bad_factor_low",
                      [](GpuConfig& c) { c.requestmax_factor = 0.0; }},
        BadConfigCase{"negative_factor",
                      [](GpuConfig& c) { c.requestmax_factor = -0.5; }},
        BadConfigCase{"bad_factor_high",
                      [](GpuConfig& c) { c.requestmax_factor = 1.5; }},
        BadConfigCase{"bad_ratio",
                      [](GpuConfig& c) { c.dram_clock_ratio = -1.0; }},
        BadConfigCase{"zero_ratio",
                      [](GpuConfig& c) { c.dram_clock_ratio = 0.0; }},
        BadConfigCase{"zero_queue",
                      [](GpuConfig& c) { c.dram_queue_capacity = 0; }},
        BadConfigCase{"zero_noc_queue",
                      [](GpuConfig& c) { c.noc_queue_depth = 0; }},
        BadConfigCase{"negative_resp_queue",
                      [](GpuConfig& c) { c.partition_resp_queue_depth = -1; }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace gpusim
