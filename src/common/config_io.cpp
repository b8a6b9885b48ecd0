#include "common/config_io.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gpusim {

namespace {

struct Field {
  std::function<std::string(const GpuConfig&)> get;
  std::function<void(GpuConfig&, const std::string&)> set;
  const char* comment;
};

template <typename T>
T parse_number(const std::string& text) {
  std::istringstream ss(text);
  T value{};
  ss >> value;
  if (ss.fail()) throw std::invalid_argument("malformed value: " + text);
  // Allow trailing whitespace only.
  std::string rest;
  ss >> rest;
  if (!rest.empty()) throw std::invalid_argument("trailing junk: " + text);
  return value;
}

template <typename T>
Field number_field(T GpuConfig::* member, const char* comment) {
  return Field{
      [member](const GpuConfig& c) {
        std::ostringstream ss;
        // max_digits10 precision so doubles survive a write/read round
        // trip exactly: crash-bundle triage reconstructs the fingerprinted
        // config from this text, and a 6-digit default would silently
        // shift dram_clock_ratio (1400/924) into a different fingerprint.
        ss.precision(std::numeric_limits<T>::max_digits10);
        ss << c.*member;
        return ss.str();
      },
      [member](GpuConfig& c, const std::string& v) {
        c.*member = parse_number<T>(v);
      },
      comment};
}

const std::map<std::string, Field>& field_table() {
  static const std::map<std::string, Field> table = {
      {"num_sms", number_field(&GpuConfig::num_sms, "streaming multiprocessors")},
      {"max_warps_per_sm", number_field(&GpuConfig::max_warps_per_sm, "warp contexts per SM")},
      {"warp_size", number_field(&GpuConfig::warp_size, "threads per warp")},
      {"max_blocks_per_sm", number_field(&GpuConfig::max_blocks_per_sm, "resident blocks per SM")},
      {"line_bytes", number_field(&GpuConfig::line_bytes, "cache line size")},
      {"l1_size_bytes", number_field(&GpuConfig::l1_size_bytes, "per-SM L1 size")},
      {"l1_assoc", number_field(&GpuConfig::l1_assoc, "L1 associativity")},
      {"l1_hit_latency", number_field(&GpuConfig::l1_hit_latency, "L1 hit latency, SM cycles")},
      {"l2_partition_bytes", number_field(&GpuConfig::l2_partition_bytes, "L2 slice per partition")},
      {"l2_assoc", number_field(&GpuConfig::l2_assoc, "L2 associativity")},
      {"l2_hit_latency", number_field(&GpuConfig::l2_hit_latency, "L2 hit latency, SM cycles")},
      {"l2_miss_extra_latency", number_field(&GpuConfig::l2_miss_extra_latency, "fill-path latency on DRAM return")},
      {"l2_mshr_entries", number_field(&GpuConfig::l2_mshr_entries, "per-partition MSHRs")},
      {"l1_mshr_entries", number_field(&GpuConfig::l1_mshr_entries, "per-SM MSHRs")},
      {"atd_sampled_sets", number_field(&GpuConfig::atd_sampled_sets, "ATD sampled sets (paper: 8)")},
      {"noc_latency", number_field(&GpuConfig::noc_latency, "crossbar one-way latency")},
      {"noc_accepts_per_cycle", number_field(&GpuConfig::noc_accepts_per_cycle, "packets a port sinks per cycle")},
      {"noc_queue_depth", number_field(&GpuConfig::noc_queue_depth, "crossbar port buffering")},
      {"num_partitions", number_field(&GpuConfig::num_partitions, "memory partitions / controllers")},
      {"banks_per_mc", number_field(&GpuConfig::banks_per_mc, "DRAM banks per controller")},
      {"dram_clock_ratio", number_field(&GpuConfig::dram_clock_ratio, "SM cycles per DRAM cycle")},
      {"t_rp_dram", number_field(&GpuConfig::t_rp_dram, "precharge, DRAM cycles")},
      {"t_rcd_dram", number_field(&GpuConfig::t_rcd_dram, "activate, DRAM cycles")},
      {"t_cl_dram", number_field(&GpuConfig::t_cl_dram, "column access, DRAM cycles")},
      {"t_burst_dram", number_field(&GpuConfig::t_burst_dram, "data burst, DRAM cycles")},
      {"t_bus_gap_dram", number_field(&GpuConfig::t_bus_gap_dram, "bus turnaround gap")},
      {"t_miss_bubble_dram", number_field(&GpuConfig::t_miss_bubble_dram, "bus bubble on fresh-row transfers")},
      {"dram_queue_capacity", number_field(&GpuConfig::dram_queue_capacity, "shared FR-FCFS queue entries")},
      {"partition_resp_queue_depth", number_field(&GpuConfig::partition_resp_queue_depth, "partition response FIFO depth")},
      {"row_bytes", number_field(&GpuConfig::row_bytes, "DRAM row (page) size")},
      {"estimation_interval", number_field(&GpuConfig::estimation_interval, "DASE interval (paper: 50000)")},
      {"requestmax_factor", number_field(&GpuConfig::requestmax_factor, "Eq. 20 empirical factor")},
      {"alpha_clamp_threshold", number_field(&GpuConfig::alpha_clamp_threshold, "alpha->1 threshold")},
      {"flight_recorder_events", number_field(&GpuConfig::flight_recorder_events, "black-box event ring capacity (0 = off)")},
  };
  return table;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

void write_config(std::ostream& os, const GpuConfig& cfg) {
  os << "# gpusim configuration (paper Table II defaults)\n";
  for (const auto& [key, field] : field_table()) {
    os << key << " = " << field.get(cfg) << "  # " << field.comment << '\n';
  }
}

GpuConfig read_config(std::istream& is, GpuConfig cfg) {
  std::string line;
  int line_no = 0;
  // Line each key was last set on, so a validate() reject can point at the
  // offending config line rather than just the field.
  std::map<std::string, int> set_lines;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto it = field_table().find(key);
    if (it == field_table().end()) {
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": unknown key '" + key + "'");
    }
    try {
      it->second.set(cfg, value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": key '" + key + "': " + e.what());
    }
    set_lines[key] = line_no;
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    // Attribute the rejection to the config line that set the offending
    // field, when the validation message names a known key.
    const std::string msg = e.what();
    for (const auto& [key, at_line] : set_lines) {
      if (msg.find(key) != std::string::npos) {
        throw std::invalid_argument("config line " + std::to_string(at_line) +
                                    ": " + msg);
      }
    }
    throw;
  }
  return cfg;
}

GpuConfig load_config(const std::string& path, GpuConfig base) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    // Opening a directory "succeeds" on POSIX but every read fails, which
    // would silently parse as an empty config; reject it explicitly.
    throw std::runtime_error("cannot open config file: " + path +
                             " (not a regular file)");
  }
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open config file: " + path);
  return read_config(file, std::move(base));
}

void save_config(const std::string& path, const GpuConfig& cfg) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write config file: " + path);
  write_config(file, cfg);
}

}  // namespace gpusim
