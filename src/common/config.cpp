#include "common/config.hpp"

namespace gpusim {

namespace {
bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

void GpuConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("GpuConfig: " + msg);
  };
  if (num_sms <= 0) fail("num_sms must be positive");
  // The crossbars and the activity engine keep one bit per SM and per
  // partition in 64-bit masks.
  if (num_sms > 64)
    fail("num_sms must be <= 64 (port bitmasks are 64 bits wide)");
  if (max_warps_per_sm <= 0) fail("max_warps_per_sm must be positive");
  // An SM keeps one bit per warp context in 64-bit ready/waiting masks.
  if (max_warps_per_sm > 64)
    fail("max_warps_per_sm must be <= 64 (warp masks are 64 bits wide)");
  if (max_blocks_per_sm <= 0) fail("max_blocks_per_sm must be positive");
  if (num_partitions <= 0) fail("num_partitions must be positive");
  if (num_partitions > 64)
    fail("num_partitions must be <= 64 (port bitmasks are 64 bits wide)");
  if (banks_per_mc <= 0) fail("banks_per_mc must be positive");
  if (banks_per_mc > 32)
    fail("banks_per_mc must be <= 32 (bank bitmasks are 32 bits wide)");
  if (!is_pow2(static_cast<u64>(line_bytes))) fail("line_bytes must be pow2");
  // A line address then leaves the tag word room for the app and valid bits.
  if (line_bytes < 32) fail("line_bytes must be at least 32");
  if (l1_size_bytes % (line_bytes * l1_assoc) != 0)
    fail("L1 size not divisible into sets");
  if (l2_partition_bytes % (line_bytes * l2_assoc) != 0)
    fail("L2 partition size not divisible into sets");
  if (row_bytes % static_cast<u64>(line_bytes) != 0)
    fail("row_bytes must be a multiple of line_bytes");
  if (atd_sampled_sets <= 0 || atd_sampled_sets > l2_num_sets())
    fail("atd_sampled_sets out of range");
  if (estimation_interval == 0) fail("estimation_interval must be positive");
  if (requestmax_factor <= 0.0 || requestmax_factor > 1.0)
    fail("requestmax_factor must be in (0, 1]");
  if (dram_clock_ratio <= 0.0) fail("dram_clock_ratio must be positive");
  if (dram_queue_capacity <= 0) fail("dram_queue_capacity must be positive");
  if (noc_queue_depth <= 0) fail("noc_queue_depth must be positive");
  if (partition_resp_queue_depth <= 0)
    fail("partition_resp_queue_depth must be positive");
  if (flight_recorder_events < 0 || flight_recorder_events > (1 << 20))
    fail("flight_recorder_events must be in [0, 1048576]");
}

}  // namespace gpusim
