// Simulation driver: advances a Gpu, fires the fixed-length estimation
// intervals (paper Section 4.4: 50K cycles), and dispatches per-interval
// samples and per-cycle hooks to registered components (estimation models,
// scheduling policies, epoch drivers).
#pragma once

#include <atomic>
#include <chrono>
#include <vector>

#include "gpu/gpu.hpp"
#include "gpu/interval.hpp"

namespace gpusim {

/// Receives the aggregated counter sample at every interval boundary.
/// Estimation models and SM-allocation policies implement this.
///
/// Stateful observers override the SimState hooks so snapshot/restore
/// captures their accumulated estimates; the defaults are no-ops for
/// stateless observers.  Simulation::save()/load() walk observers in
/// registration order, so a restore must register the same observers in the
/// same order as the run that wrote the snapshot.
class IntervalObserver {
 public:
  virtual ~IntervalObserver() = default;
  virtual void on_interval(const IntervalSample& sample, Gpu& gpu) = 0;

  virtual void save_state(StateWriter&) const {}
  virtual void load_state(StateReader&) {}
  virtual void hash_state(Hasher&) const {}
};

/// Fired every cycle before the GPU advances; used by the MISE/ASM
/// priority-epoch drivers and the temporal policy.  Same SimState contract
/// as IntervalObserver.
///
/// Hooks run on whichever engine is active, so a hook may change the GPU
/// only through set_priority_app() and set_partition(), which settle the
/// activity engine's owed accruals first.  It may read the clock, the
/// partition table, migration state and the per-app instruction counter
/// (Gpu::instructions(), which takes each instruction of an SM asleep in a
/// compute run in the cycle it issues).  Each component's own counters —
/// an SM's instructions and stall/idle cycles, the DRAM counters — are
/// accrued lazily and settled only at interval boundaries and when run()
/// returns, so read those from an IntervalObserver or after the run.
class CycleHook {
 public:
  virtual ~CycleHook() = default;
  virtual void on_cycle(Cycle now, Gpu& gpu) = 0;

  virtual void save_state(StateWriter&) const {}
  virtual void load_state(StateReader&) {}
  virtual void hash_state(Hasher&) const {}
};

class Simulation {
 public:
  /// Progress-watchdog default: if no instruction retires and no DRAM
  /// request is served for this many cycles while work is outstanding, the
  /// run is declared dead(locked).  Generous enough that no legitimate
  /// workload trips it; tighten per run via set_watchdog().
  static constexpr Cycle kDefaultWatchdogCycles = 1'000'000;

  Simulation(const GpuConfig& cfg, std::vector<AppLaunch> launches)
      : gpu_(cfg, std::move(launches)),
        interval_length_(cfg.estimation_interval) {}

  Gpu& gpu() { return gpu_; }
  const Gpu& gpu() const { return gpu_; }

  void add_observer(IntervalObserver* obs) { observers_.push_back(obs); }
  void add_cycle_hook(CycleHook* hook) { cycle_hooks_.push_back(hook); }

  /// Sets the watchdog stall threshold in cycles; 0 disables the watchdog.
  void set_watchdog(Cycle stall_cycles) { watchdog_cycles_ = stall_cycles; }
  Cycle watchdog_cycles() const { return watchdog_cycles_; }

  /// Enables/disables the GPU's activity-tracked cycle engine (on by
  /// default; the determinism audit and the equivalence tests clear it for
  /// the per-cycle reference walk).  An execution-strategy switch:
  /// simulated output — interval samples, counters, watchdog firing
  /// cycles — is bit-identical either way; only wall-clock changes.
  void set_activity_sched(bool on) { gpu_.set_activity_sched(on); }

  /// Attaches a loop profiler to the GPU's cycle phases plus this driver's
  /// interval bookkeeping (nullptr detaches).
  void set_loop_profiler(LoopProfiler* prof) {
    profiler_ = prof;
    gpu_.set_loop_profiler(prof);
  }

  // --- Run limits --------------------------------------------------------
  // All limits are caller configuration, not simulated state: like the
  // watchdog threshold they are neither serialized nor hashed, and hitting
  // one raises a typed SimError instead of silently truncating the run.
  // Limits are sampled at the same chunk boundaries as the watchdog (every
  // kWatchdogCheckPeriod cycles at most), so the hot loop stays clean, and
  // once more when run() returns normally, so even a short run sees at
  // least one check.

  /// Wall-clock deadline: run() throws SimError(kDeadlineExceeded) at the
  /// first sampling point past `deadline`.  A default-constructed
  /// time_point disables the check.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
  }
  /// Absolute cycle cap: run() advances to `max_cycles` at most and throws
  /// SimError(kBudgetExceeded) when the caller asked to go further.  0
  /// disables the cap.
  void set_cycle_budget(Cycle max_cycles) { cycle_budget_ = max_cycles; }
  /// Memory-traffic cap: run() throws SimError(kBudgetExceeded) once the
  /// total DRAM requests served across all partitions exceed `max_served`.
  /// 0 disables the cap.
  void set_mem_budget(u64 max_served) { mem_budget_ = max_served; }
  /// Cooperative cancellation: run() throws SimError(kInterrupted) at the
  /// first sampling point where `*cancel` is true (nullptr disables).  The
  /// simulation state is intact and snapshot-able at the throw point —
  /// graceful-shutdown drains rely on that.
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Runs for `cycles`, firing interval boundaries as they pass, and
  /// settles the activity engine's lazy accruals before it returns, so
  /// every counter read afterwards is current.  Throws
  /// SimError(kWatchdogStall) with a full pipeline-state dump when the
  /// watchdog detects a deadlock/livelock, and the typed limit errors
  /// described above when a configured limit trips.
  void run(Cycle cycles) { advance(cycles, kInvalidApp, 0); }

  /// Runs like run(max_cycles) but stops on the first cycle boundary at
  /// which `app` has issued at least `target` instructions in total.
  /// Returns whether the target was reached.
  bool run_until_instructions(AppId app, u64 target, Cycle max_cycles);

  u64 intervals_completed() const { return intervals_completed_; }

  // --- SimState ----------------------------------------------------------
  // snapshot()/restore() capture the complete simulation: the GPU plus the
  // interval/watchdog bookkeeping plus every registered observer and cycle
  // hook (in registration order).  watchdog_cycles_ and the run limits are
  // caller configuration, not simulated state: a restore keeps whatever the
  // restoring caller configured.
  void save(StateWriter& w) const;
  void load(StateReader& r);

  /// Serializes the full simulation into a byte buffer.
  std::vector<u8> snapshot() const;
  /// Restores from a buffer produced by snapshot() on an identically
  /// configured simulation (same config, launches, observers, hooks).
  void restore(const std::vector<u8>& bytes);

  /// 64-bit digest of the complete simulation state (GPU + observers +
  /// interval bookkeeping) — the unit of divergence detection.
  u64 state_hash() const;

  /// Per-component digests: the Gpu's components plus one entry per
  /// registered observer/hook and the interval bookkeeping.
  std::vector<std::pair<std::string, u64>> component_hashes() const;

 private:
  /// run()'s body: advances `cycles` cycles, or until `until_app` (when
  /// not kInvalidApp) has issued `until_instructions` instructions.
  void advance(Cycle cycles, AppId until_app, u64 until_instructions);
  void maybe_fire_interval();
  void check_watchdog();
  void check_limits();
  bool limits_armed() const {
    return cancel_ != nullptr || mem_budget_ != 0 ||
           wall_deadline_ != std::chrono::steady_clock::time_point{};
  }
  u64 progress_signature() const;
  u64 total_requests_served() const;

  Gpu gpu_;
  Cycle interval_length_;
  Cycle next_interval_end_ = 0;
  u64 intervals_completed_ = 0;
  std::vector<IntervalObserver*> observers_;
  std::vector<CycleHook*> cycle_hooks_;

  Cycle watchdog_cycles_ = kDefaultWatchdogCycles;
  Cycle last_progress_cycle_ = 0;
  u64 last_progress_sig_ = 0;
  LoopProfiler* profiler_ = nullptr;

  std::chrono::steady_clock::time_point wall_deadline_{};
  Cycle cycle_budget_ = 0;
  u64 mem_budget_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace gpusim
