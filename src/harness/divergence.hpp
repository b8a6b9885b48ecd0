// SimState divergence auditor: lockstep comparison of two simulations.
//
// Two runs of the same config + workload are supposed to be bit-identical
// regardless of execution-strategy knobs (activity engine on/off, serial
// vs parallel sweep, interrupted + restored vs uninterrupted).  The
// auditor makes that claim checkable: it steps two Simulations in lockstep
// strides, compares their 64-bit state hashes at every stride boundary, and
// on the first mismatch drills into the per-component hashes to name which
// subsystems diverged, attaching both SimGuard pipeline dumps.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpu/simulator.hpp"

namespace gpusim {

/// One component whose hash differs between the two runs at the divergent
/// sample point.
struct ComponentMismatch {
  std::string name;
  u64 hash_a = 0;
  u64 hash_b = 0;
};

struct DivergenceReport {
  bool diverged = false;
  /// First sampled cycle at which the state hashes differed.
  Cycle first_divergent_cycle = 0;
  u64 hash_a = 0;
  u64 hash_b = 0;
  /// Components whose per-component hashes differ at that cycle (the
  /// coarse hash can differ while every component matches only if the
  /// top-level bookkeeping diverged; that shows up as "sim.intervals").
  std::vector<ComponentMismatch> component_mismatches;
  /// SimGuard pipeline dumps of both simulations at the divergent cycle.
  std::string dump_a;
  std::string dump_b;
  /// Sample points checked (including the one that diverged, if any).
  u64 samples_checked = 0;

  std::string to_string() const;
};

/// Steps `a` and `b` in lockstep over `total_cycles`, comparing state
/// hashes every `sample_every` cycles (and once more at the end if the
/// budget is not a multiple).  Stops at the first divergence.  Both
/// simulations must start at the same cycle with equal state; the caller
/// configures each side's knobs (activity engine, restored-from-snapshot…)
/// before calling.
DivergenceReport audit_divergence(Simulation& a, Simulation& b,
                                  Cycle total_cycles, Cycle sample_every);

}  // namespace gpusim
