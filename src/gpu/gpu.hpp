// Top-level GPU: SMs, two crossbar directions, memory partitions, the
// spatial partition table, and the interval-sampling machinery feeding the
// slowdown estimators (paper Fig. 1 architecture).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.hpp"
#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "common/flight_recorder.hpp"
#include "common/loop_profiler.hpp"
#include "common/sim_error.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpu/app_runtime.hpp"
#include "gpu/interval.hpp"
#include "kernels/kernel_profile.hpp"
#include "mem/address_map.hpp"
#include "mem/partition.hpp"
#include "noc/crossbar.hpp"
#include "sm/sm_core.hpp"

namespace gpusim {

struct AppLaunch {
  KernelProfile profile;
  u64 seed = 1;
  bool restart_on_finish = true;
};

/// App id for each SM under an even split: app i owns a contiguous chunk of
/// num_sms / num_apps SMs (the paper's default policy), with any remainder
/// given to the lowest-numbered apps.
std::vector<AppId> even_partition(int num_sms, int num_apps);

/// Concrete crossbar routers (devirtualized: these inline into the
/// arbitration loop instead of going through a std::function thunk).
struct RouteRequestToPartition {
  int operator()(const MemRequestPacket& p) const {
    return static_cast<int>(p.dest);
  }
};
struct RouteResponseToSm {
  int operator()(const MemResponsePacket& p) const {
    return static_cast<int>(p.sm);
  }
};

class Gpu {
 public:
  Gpu(const GpuConfig& cfg, std::vector<AppLaunch> launches);

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  int num_apps() const { return static_cast<int>(runtimes_.size()); }
  int num_sms() const { return cfg_.num_sms; }
  Cycle now() const { return now_; }
  const GpuConfig& config() const { return cfg_; }

  /// Requests the partition described by `desired` (one AppId per SM;
  /// kInvalidApp leaves the SM idle).  SMs that must change owner drain
  /// first (paper Section VII "SM Draining") and are handed over as they
  /// empty; already-matching SMs are untouched.
  void set_partition(const std::vector<AppId>& desired);

  std::vector<AppId> current_partition() const;
  /// The most recently requested partition — what current_partition()
  /// converges to once every pending drain completes.  All-kInvalidApp
  /// until the first set_partition call.
  const std::vector<AppId>& desired_partition() const {
    return desired_partition_;
  }
  bool migration_in_progress() const;
  /// The cycle of the set_partition call that started the pending
  /// migration (a request that supersedes it keeps that start).  The
  /// progress watchdog bounds how long a migration may stay pending.
  Cycle migration_pending_since() const { return migration_pending_since_; }
  int sms_assigned(AppId app) const;

  /// Gives one application's DRAM requests absolute priority in every
  /// memory controller (MISE/ASM estimation epochs); kInvalidApp clears.
  void set_priority_app(AppId app);

  void cycle();
  void run(Cycle cycles);

  // --- Activity-tracked cycle engine (DESIGN.md §12) ---------------------
  // By default cycle() dispatches to an engine that keeps a per-SM and
  // per-partition wake cycle (from the components' quiet_at(),
  // compute_run() and next-event predicates) plus the crossbars' source
  // state (the SMs with outbound packets, the earliest response head), so
  // one cycle only touches components whose own cycle() can act.  Sleeping
  // components are bulk-advanced with skip_cycles() when they next wake,
  // which keeps every simulated observable — state hashes, snapshots,
  // interval samples — bit-identical to the per-cycle walk.  Only a fault
  // injector pins the whole GPU to the per-cycle reference walk
  // (cycle_full).

  /// Enables/disables the activity engine (off = the per-cycle reference
  /// walk).  Safe at any cycle: owed accruals are settled first, so
  /// flipping mid-run never changes simulated state.
  void set_activity_sched(bool on);

  /// Settles every owed accrual, so each component's counters read what
  /// the per-cycle walk would show at now().  Mutates only lazily deferred
  /// bookkeeping to its canonical value — semantically const.  run(),
  /// Simulation::advance and every state walk call it; the per-app
  /// instruction counter never lags.
  void sync_for_observation() const {
    const_cast<Gpu*>(this)->sync_all_to(now_);
  }

  /// Attaches a loop profiler (nullptr detaches).  Must outlive the Gpu or
  /// be detached first.
  void set_loop_profiler(LoopProfiler* prof) { profiler_ = prof; }

  /// Aggregates all counters accumulated since the previous call into an
  /// IntervalSample and snapshots the counters.
  IntervalSample end_interval();

  // --- accessors for models, policies, harnesses and tests ---
  PerAppCounter& instructions() { return instructions_; }
  const PerAppCounter& instructions() const { return instructions_; }
  SmCore& sm(int i) { return *sms_[i]; }
  const SmCore& sm(int i) const { return *sms_[i]; }
  MemoryPartition& partition(int p) { return *partitions_[p]; }
  const MemoryPartition& partition(int p) const { return *partitions_[p]; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  AppRuntime& runtime(AppId app) { return *runtimes_[app]; }
  const AppRuntime& runtime(AppId app) const { return *runtimes_[app]; }

  /// True when no packet is in flight anywhere (tests, drain checks).
  bool memory_system_quiescent() const;

  // --- SimGuard ---

  /// Attaches a fault injector (nullptr detaches).  Hooks: response drops
  /// at SM delivery, request drops at partition intake, whole-partition
  /// stalls.  The injector must outlive the Gpu or be detached first.
  void set_fault_injector(FaultInjector* injector);

  /// Request-conservation audit: combines the always-on taps with a walk of
  /// every queue and MSHR to determine whether any packet leaked or
  /// completed twice.  Valid at any cycle, quiescent or not.
  AuditReport audit_conservation() const;

  /// Throws SimError(kConservation) carrying the full report when the audit
  /// finds an imbalance.
  void verify_conservation() const;

  /// Human-readable pipeline-state snapshot: per-SM occupancy and warp
  /// states, per-partition queue/MSHR/DRAM occupancies, crossbar backlogs.
  /// Attached to watchdog and conservation errors.
  std::string dump_state() const;

  const ConservationTaps& conservation_taps() const { return taps_; }

  /// Flight recorder (FlightRecorder::kCapacity events) that stages the
  /// trace events the TelemetryHub drains; the ring rides along in
  /// snapshots.
  FlightRecorder& flight_recorder() { return recorder_; }
  const FlightRecorder& flight_recorder() const { return recorder_; }

  // --- SimState ----------------------------------------------------------
  // Serializes every run-time-evolving field of the whole GPU: clock,
  // interval bookkeeping, partition table, app runtimes, SMs (with their
  // owning app id, resolved back to a BlockSource on load), memory
  // partitions and both crossbars.  Config and wiring are construction-time
  // and excluded.  An attached fault injector's progress counters and RNG
  // *are* captured (and load() requires the same attachment state), so an
  // armed nth-event fault replays at the same event after a restore; the
  // FaultSchedule itself is configuration, covered by the snapshot
  // fingerprint via the harness context.
  template <typename Sink>
  void write_state(Sink& s) const;
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r);

  /// 64-bit digest over the full write_state() field walk.
  u64 state_hash() const;

  /// Per-component digests for divergence drill-down: which subsystem's
  /// state differs between two runs that disagree on state_hash().
  std::vector<std::pair<std::string, u64>> component_hashes() const;

 private:
  /// Hands drained SMs to their desired owners.  `first_cycle` is the
  /// first cycle a handed-over SM runs for its new owner: now_ between
  /// cycles (set_partition), now_ + 1 at the end of a cycle (step 5).
  void progress_migration(Cycle first_cycle);

  // --- activity engine internals (see DESIGN.md §12) ---------------------
  bool engine_enabled() const {
    return activity_sched_ && injector_ == nullptr;
  }
  void rebuild_engine_state();
  void cycle_engine();
  void cycle_full();
  /// Settles component `x`'s owed bulk accruals up to (excluding) `target`.
  void sync_sm_to(int s, Cycle target);
  void sync_partition_to(int p, Cycle target);
  void sync_all_to(Cycle target);

  GpuConfig cfg_;
  AddressMap address_map_;
  std::vector<std::unique_ptr<AppRuntime>> runtimes_;
  std::vector<std::unique_ptr<SmCore>> sms_;
  std::vector<std::unique_ptr<MemoryPartition>> partitions_;
  CrossbarChannel<MemRequestPacket, RouteRequestToPartition> req_net_;
  CrossbarChannel<MemResponsePacket, RouteResponseToSm> resp_net_;
  std::vector<BoundedQueue<MemRequestPacket>*> sm_out_ptrs_;
  std::vector<BoundedQueue<MemResponsePacket>*> part_resp_ptrs_;

  std::vector<AppId> desired_partition_;
  bool migration_pending_ = false;
  Cycle migration_pending_since_ = 0;

  Cycle now_ = 0;
  Cycle last_interval_end_ = 0;
  PerAppCounter instructions_;
  PerAppCounter sm_cycles_;
  ConservationTaps taps_;
  FaultInjector* injector_ = nullptr;
  FlightRecorder recorder_;

  // Activity-engine bookkeeping.  None of it is simulated state: wakes and
  // masks are derivable from component state, and the synced cursors only
  // track how much bulk accrual is still owed — all settled before any
  // observation.  Deliberately excluded from write_state().
  bool activity_sched_ = true;   ///< set_activity_sched(false) clears this
  bool engine_dirty_ = true;     ///< wakes/masks need a rebuild
  std::vector<Cycle> sm_wake_;    ///< next cycle SM s must be processed
  std::vector<Cycle> part_wake_;  ///< next cycle partition p must be processed
  std::vector<Cycle> sm_synced_;  ///< first cycle not yet accrued for SM s
  std::vector<Cycle> part_synced_;
  u64 req_src_mask_ = 0;  ///< SMs with a non-empty out-queue
  /// Earliest ready cycle of any partition's response-queue head.
  Cycle resp_due_ = kNeverCycle;
  /// SMs asleep in a compute run, and how many of each app's SMs that is:
  /// each issues one instruction per cycle, which cycle_engine() adds to
  /// instructions_ as the cycle passes.
  u64 compute_sleep_mask_ = 0;
  std::array<u64, kMaxApps> compute_sleepers_{};
  LoopProfiler* profiler_ = nullptr;
};

}  // namespace gpusim
