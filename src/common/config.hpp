// Baseline GPU configuration (paper Table II, ~NVIDIA GeForce GTX 480).
//
// All latencies are expressed in SM core cycles.  The paper runs the SMs at
// 1400 MHz and DRAM at 924 MHz; rather than simulate two clock domains we
// scale DRAM timing parameters (given in DRAM cycles) into SM cycles with the
// fixed ratio 1400/924 ~= 1.515.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

struct GpuConfig {
  // ---- SMs (Table II: 1400MHz, 16 SMs, max 48 warps / 1536 threads) ----
  int num_sms = 16;
  int max_warps_per_sm = 48;
  int warp_size = 32;
  int max_blocks_per_sm = 8;

  // ---- Caches (16KB 4-way L1, 768KB L2 over 6 partitions, 128B lines) ----
  int line_bytes = 128;
  int l1_size_bytes = 16 * 1024;
  int l1_assoc = 4;
  Cycle l1_hit_latency = 30;  // includes load pipeline / register writeback
  int l2_partition_bytes = 128 * 1024;  // 768KB total / 6 partitions
  int l2_assoc = 8;
  Cycle l2_hit_latency = 130;  // NoC-to-data round trip inside the partition
  int l2_mshr_entries = 128;      // per partition
  int l1_mshr_entries = 32;       // per SM
  int atd_sampled_sets = 8;       // paper Section 6: 8 cache sets sampled

  // ---- Interconnect (1 crossbar/direction, Local-RR) ----
  Cycle noc_latency = 40;         // one-way traversal latency
  int noc_accepts_per_cycle = 1;  // packets a port sinks per cycle/direction
  int noc_queue_depth = 8;        // per input/output port

  // ---- Memory partitions (FR-FCFS, 16 banks/MC, 924MHz, tRP=tRCD=12) ----
  int num_partitions = 6;
  int banks_per_mc = 16;
  double dram_clock_ratio = 1400.0 / 924.0;  // SM cycles per DRAM cycle
  int t_rp_dram = 12;    // precharge, DRAM cycles (Table II)
  int t_rcd_dram = 12;   // row activate, DRAM cycles (Table II)
  int t_cl_dram = 12;    // column access latency, DRAM cycles
  int t_burst_dram = 4;  // data-bus cycles per 128B line (GDDR5 burst)
  int t_bus_gap_dram = 1;  // bus turnaround/CCD gap between bursts
  /// Extra data-bus bubble charged when the transferred line comes from a
  /// freshly activated row (rank/bank-group switch, tRTR/tCCD_L-style
  /// penalties).  This is what makes *attained* bandwidth depend on an
  /// application's row locality: irregular kernels saturate DRAM at a far
  /// lower useful utilisation than streaming kernels, as in Table III.
  int t_miss_bubble_dram = 5;
  int dram_queue_capacity = 64;  // shared FR-FCFS queue entries per MC
  u64 row_bytes = 2048;  // DRAM row (page) size per bank
  /// Partition response-queue depth (drained 1/cycle by the response
  /// crossbar).  A full queue back-pressures the L2 hit path and defers
  /// DRAM-fill fan-out instead of overflowing.
  int partition_resp_queue_depth = 1024;
  /// Fill-path latency added to a DRAM completion before its response
  /// leaves the partition (L2 fill + return pipeline).  Together with the
  /// NoC and DRAM timings this puts the unloaded global-memory latency
  /// near the ~400 SM cycles measured on Fermi-class GPUs.
  Cycle l2_miss_extra_latency = 150;

  // ---- Modeled recovery (SM-side MSHR retry) ----
  /// When enabled, an SM re-issues a pending L1-MSHR miss whose response has
  /// not arrived within `mshr_retry_timeout` cycles, doubling the timeout on
  /// each reissue (exponential backoff).  After `mshr_retry_max` reissues the
  /// SM raises SimError(kRecoveryExhausted) instead of hanging silently.
  /// Off by default: a lost packet then strands the warp and the watchdog /
  /// conservation auditor report it, exactly as before.
  bool mshr_retry_enabled = false;
  Cycle mshr_retry_timeout = 50'000;
  int mshr_retry_max = 4;

  // ---- Flight recorder (black-box event ring) ----
  /// Capacity of the always-on flight-recorder event ring (block
  /// dispatches, migrations, MSHR reissues, fault firings, crossbar
  /// stalls, queue high-water marks).  The ring is serialized through the
  /// SimState walk, so its size is part of the snapshot fingerprint.
  /// 0 disables recording entirely.
  int flight_recorder_events = 1024;

  // ---- DASE model parameters ----
  Cycle estimation_interval = 50'000;  // paper Section 4.4: fixed 50K cycles
  double requestmax_factor = 0.6;      // paper Eq. 20 empirical default
  double alpha_clamp_threshold = 0.7;  // Section 4.1: alpha->1 when large

  // ---- Policy governor (guarded scheduling; DESIGN.md §14) ----
  /// Cycles an SM-drain migration may stay pending before the governor's
  /// drain watchdog intervenes.  Must cover at least one estimation
  /// interval: a budget shorter than the epoch would let the watchdog fire
  /// between the decision and the first chance to observe convergence.
  /// Drains wait for active blocks to run to completion, and a
  /// memory-bound block legitimately takes >200k cycles, so the default
  /// is deliberately generous (matching the progress watchdog's default);
  /// chaos campaigns and stall gates tighten it per-job.
  Cycle governor_drain_budget = 1'000'000;
  /// Most SMs a single epoch's repartition may reassign; larger proposals
  /// are clamped back toward the current partition.
  int governor_max_delta = 8;
  /// Consecutive epochs an app may sit pinned at the min-SM floor before
  /// the starvation breaker trips and freezes the partition.
  int governor_starvation_window = 6;
  /// Epoch window for flap detection (A->B->A) and the freeze length after
  /// a breaker trip.
  int governor_thrash_window = 8;
  /// Breaker trips after which the governor abandons the policy and falls
  /// back to the even split permanently.
  int governor_breaker_trips = 3;
  /// Largest tolerated epoch-to-epoch slowdown-estimate ratio; a jump
  /// beyond it marks the epoch low-confidence and holds the last-good
  /// partition.
  double governor_jump_bound = 8.0;
  /// When true, a stalled drain is forcibly cancelled (the GPU keeps the
  /// current partition) instead of raising kMigrationStalled.
  bool governor_force_preempt = false;

  // ---- Derived quantities ----
  Cycle t_rp() const { return dram_to_sm(t_rp_dram); }
  Cycle t_rcd() const { return dram_to_sm(t_rcd_dram); }
  Cycle t_cl() const { return dram_to_sm(t_cl_dram); }
  Cycle t_burst() const { return dram_to_sm(t_burst_dram); }
  Cycle t_bus_gap() const { return dram_to_sm(t_bus_gap_dram); }
  Cycle t_miss_bubble() const { return dram_to_sm(t_miss_bubble_dram); }
  Cycle dram_to_sm(int dram_cycles) const {
    return static_cast<Cycle>(std::llround(dram_cycles * dram_clock_ratio));
  }

  int l1_num_sets() const { return l1_size_bytes / (line_bytes * l1_assoc); }
  int l2_num_sets() const {
    return l2_partition_bytes / (line_bytes * l2_assoc);
  }
  u64 lines_per_row() const { return row_bytes / line_bytes; }

  /// Cycles of data-bus occupancy needed to move one cache line: the
  /// paper's TimePerReq in Eq. 20 ("constant depend on the last level cache
  /// line size and DRAM burst length").
  Cycle time_per_request() const { return t_burst(); }

  /// Validates internal consistency; throws std::invalid_argument on error.
  void validate() const;

  /// Feeds every configuration field into a SimState sink — used for the
  /// snapshot-file fingerprint that rejects restoring a checkpoint into a
  /// differently configured simulator.
  template <typename Sink>
  void write_fingerprint(Sink& s) const {
    s.put_i32(num_sms);
    s.put_i32(max_warps_per_sm);
    s.put_i32(warp_size);
    s.put_i32(max_blocks_per_sm);
    s.put_i32(line_bytes);
    s.put_i32(l1_size_bytes);
    s.put_i32(l1_assoc);
    s.put_u64(l1_hit_latency);
    s.put_i32(l2_partition_bytes);
    s.put_i32(l2_assoc);
    s.put_u64(l2_hit_latency);
    s.put_i32(l2_mshr_entries);
    s.put_i32(l1_mshr_entries);
    s.put_i32(atd_sampled_sets);
    s.put_u64(noc_latency);
    s.put_i32(noc_accepts_per_cycle);
    s.put_i32(noc_queue_depth);
    s.put_i32(num_partitions);
    s.put_i32(banks_per_mc);
    s.put_double(dram_clock_ratio);
    s.put_i32(t_rp_dram);
    s.put_i32(t_rcd_dram);
    s.put_i32(t_cl_dram);
    s.put_i32(t_burst_dram);
    s.put_i32(t_bus_gap_dram);
    s.put_i32(t_miss_bubble_dram);
    s.put_i32(dram_queue_capacity);
    s.put_u64(row_bytes);
    s.put_i32(partition_resp_queue_depth);
    s.put_u64(l2_miss_extra_latency);
    s.put_u64(estimation_interval);
    s.put_double(requestmax_factor);
    s.put_double(alpha_clamp_threshold);
    s.put_bool(mshr_retry_enabled);
    s.put_u64(mshr_retry_timeout);
    s.put_i32(mshr_retry_max);
    s.put_i32(flight_recorder_events);
    s.put_u64(governor_drain_budget);
    s.put_i32(governor_max_delta);
    s.put_i32(governor_starvation_window);
    s.put_i32(governor_thrash_window);
    s.put_i32(governor_breaker_trips);
    s.put_double(governor_jump_bound);
    s.put_bool(governor_force_preempt);
  }
};

}  // namespace gpusim
