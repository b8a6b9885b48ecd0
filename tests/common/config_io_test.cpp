#include "common/config_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace gpusim {
namespace {

TEST(ConfigIoTest, RoundTripPreservesEveryField) {
  GpuConfig original;
  original.num_sms = 8;
  original.banks_per_mc = 8;
  original.estimation_interval = 25'000;
  original.requestmax_factor = 0.45;
  original.mshr_retry_enabled = true;
  original.t_miss_bubble_dram = 7;
  original.dram_clock_ratio = 1.25;

  std::stringstream ss;
  write_config(ss, original);
  const GpuConfig parsed = read_config(ss);

  EXPECT_EQ(parsed.num_sms, 8);
  EXPECT_EQ(parsed.banks_per_mc, 8);
  EXPECT_EQ(parsed.estimation_interval, 25'000u);
  EXPECT_DOUBLE_EQ(parsed.requestmax_factor, 0.45);
  EXPECT_TRUE(parsed.mshr_retry_enabled);
  EXPECT_EQ(parsed.t_miss_bubble_dram, 7);
  EXPECT_DOUBLE_EQ(parsed.dram_clock_ratio, 1.25);
}

TEST(ConfigIoTest, PartialFileKeepsDefaults) {
  std::stringstream ss("num_sms = 4\n");
  const GpuConfig cfg = read_config(ss);
  EXPECT_EQ(cfg.num_sms, 4);
  EXPECT_EQ(cfg.num_partitions, 6);  // untouched default
}

TEST(ConfigIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# a comment\n"
      "\n"
      "num_sms = 12  # trailing comment\n"
      "   \t  \n");
  EXPECT_EQ(read_config(ss).num_sms, 12);
}

TEST(ConfigIoTest, UnknownKeyRejected) {
  std::stringstream ss("nmu_sms = 4\n");
  EXPECT_THROW(read_config(ss), std::invalid_argument);
}

TEST(ConfigIoTest, MalformedValueRejected) {
  std::stringstream bad_number("num_sms = four\n");
  EXPECT_THROW(read_config(bad_number), std::invalid_argument);
  std::stringstream no_equals("num_sms 4\n");
  EXPECT_THROW(read_config(no_equals), std::invalid_argument);
  std::stringstream bad_bool("mshr_retry_enabled = maybe\n");
  EXPECT_THROW(read_config(bad_bool), std::invalid_argument);
}

TEST(ConfigIoTest, InvalidResultingConfigRejected) {
  std::stringstream ss("num_sms = 0\n");
  EXPECT_THROW(read_config(ss), std::invalid_argument);
}

/// Runs read_config and returns the failure message (empty = no throw).
std::string read_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    read_config(ss);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigIoTest, UnknownKeyNamesOffendingLine) {
  const std::string msg = read_error(
      "# header\n"
      "num_sms = 8\n"
      "nmu_sms = 4\n");
  EXPECT_NE(msg.find("config line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nmu_sms"), std::string::npos) << msg;
}

TEST(ConfigIoTest, MalformedValueNamesLineAndKey) {
  const std::string msg = read_error("num_sms = four\n");
  EXPECT_NE(msg.find("config line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("num_sms"), std::string::npos) << msg;
  EXPECT_NE(msg.find("four"), std::string::npos) << msg;

  const std::string no_eq = read_error("\n\nnum_sms 4\n");
  EXPECT_NE(no_eq.find("config line 3"), std::string::npos) << no_eq;
}

TEST(ConfigIoTest, ValidateRejectionPointsAtOffendingLine) {
  // banks_per_mc = 64 parses fine but fails validate(); the error must be
  // attributed to line 2, where the bad value was set.
  const std::string msg = read_error(
      "num_sms = 8\n"
      "banks_per_mc = 64\n");
  EXPECT_NE(msg.find("config line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("banks_per_mc"), std::string::npos) << msg;
}

TEST(ConfigIoTest, NegativeQueueDepthRejected) {
  const std::string msg = read_error("partition_resp_queue_depth = -1\n");
  EXPECT_NE(msg.find("config line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("partition_resp_queue_depth"), std::string::npos) << msg;
}

TEST(ConfigIoTest, DirectoryAsConfigFileRejected) {
  EXPECT_THROW(load_config(::testing::TempDir()), std::runtime_error);
}

TEST(ConfigIoTest, RoundTripIncludesRespQueueDepth) {
  GpuConfig cfg;
  cfg.partition_resp_queue_depth = 77;
  std::stringstream ss;
  write_config(ss, cfg);
  EXPECT_EQ(read_config(ss).partition_resp_queue_depth, 77);
}

TEST(ConfigIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "gpusim_cfg_test.cfg";
  GpuConfig cfg;
  cfg.num_sms = 4;
  save_config(path, cfg);
  const GpuConfig loaded = load_config(path);
  EXPECT_EQ(loaded.num_sms, 4);
  std::remove(path.c_str());
}

TEST(ConfigIoTest, MissingFileThrows) {
  EXPECT_THROW(load_config("/nonexistent/path/gpusim.cfg"),
               std::runtime_error);
}

TEST(ConfigIoTest, BoolAcceptsNumericForms) {
  std::stringstream ss("mshr_retry_enabled = 0\n");
  EXPECT_FALSE(read_config(ss).mshr_retry_enabled);
  std::stringstream ss2("mshr_retry_enabled = 1\n");
  EXPECT_TRUE(read_config(ss2).mshr_retry_enabled);
}

}  // namespace
}  // namespace gpusim
