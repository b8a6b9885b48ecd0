// ChaosLab campaign engine.
//
// A chaos campaign fans deterministic random FaultSchedules across
// workload × policy co-runs (through the batch pool of
// harness/worker_pool.hpp and a common/jsonl.hpp Ledger checkpoint, like
// the sweep), classifies every outcome into exactly one of
// four classes — there is deliberately no "unknown" —
//
//   recovered     the run completed, the conservation audit balanced
//                 (within the recovery tolerance) and every estimate is
//                 finite: the modeled timeout/retry path absorbed the
//                 faults;
//   guard-caught  a SimGuard layer raised a typed SimError (recovery
//                 budget spent, invariant violation, conservation leak,
//                 …) or the post-run audit found an unexplained imbalance;
//   wrong-result  the run completed but produced corrupt output (a
//                 silently misrouted request, or a non-finite estimate
//                 that slipped past the sanitizer);
//   hang          the progress watchdog proved a deadlock/livelock, or a
//                 stall-forever fault was still active when the cycle
//                 budget expired (the wedge simply outlived the budget);
//
// and delta-debugs every failing schedule down to a minimal reproducer,
// emitted as a ready-to-paste `gpusim_cli --fault-schedule` replay
// command.  Everything is deterministic: identical options produce a
// byte-identical campaign report for any worker count, interrupted and
// resumed or not.
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "kernels/workload_sets.hpp"

namespace gpusim {

enum class ChaosOutcome : u8 {
  kRecovered,
  kGuardCaught,
  kWrongResult,
  kHang,
};

const char* to_string(ChaosOutcome outcome);

struct ChaosOptions {
  GpuConfig gpu;
  /// Campaign size: one random FaultSchedule per job.
  int schedules = 50;
  /// Master seed; job i's schedule derives deterministically from it.
  u64 seed = 1;
  /// Cycle budget per job.  Jobs also tighten the watchdog, the
  /// estimation interval and the retry timeout to fractions of this so
  /// every mechanism gets exercised inside the budget.
  Cycle cycles = 40'000;
  /// Worker threads (0 = one per hardware thread; 1 = serial).  The
  /// report is byte-identical for every value.
  int jobs = 1;
  /// Arm the modeled MSHR timeout/retry recovery path in every job.
  bool recovery = true;
  /// Attach the policy safety governor to every job (the production
  /// default).  Campaigns tighten governor_drain_budget to a fraction of
  /// `cycles` so a wedged drain is diagnosed as the typed
  /// kMigrationStalled instead of the generic progress watchdog.
  bool governor = true;
  /// Maximum events per random schedule.
  int max_events = 4;
  /// Delta-debug failing schedules down to minimal reproducers.
  bool minimize = true;
  /// JSONL campaign checkpoint: one line per finished job, flushed
  /// immediately; a restarted campaign replays finished jobs verbatim.
  /// Empty disables checkpointing.
  std::string checkpoint_path;
  /// Base seed for the workload applications (harness_app_seed).
  u64 base_seed = 42;
  /// Graceful-shutdown flag: once true, no new schedule starts and the job
  /// in flight raises SimError(kInterrupted) out of run_chaos_campaign
  /// (never classified as a chaos outcome).  Finished jobs are already
  /// flushed to the checkpoint, so rerunning resumes the campaign.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute wall-clock deadline for the whole campaign; crossing it
  /// raises SimError(kDeadlineExceeded) out of run_chaos_campaign (again
  /// never classified).  Default-constructed = none.
  std::chrono::steady_clock::time_point wall_deadline{};
  /// Crash forensics: when non-empty, every guard-caught/hang SimError a
  /// chaos job catches also emits a crash bundle (harness/crash_bundle.hpp)
  /// under this root before the job is classified.  Off by default — a
  /// campaign *expects* failures, so bundling is opt-in; minimization
  /// probes never bundle regardless.
  std::string crash_bundle_dir;
  /// Telemetry output directory (see telemetry/hub.hpp): when non-empty,
  /// every job — including guard-caught and hang outcomes — flushes
  /// per-label JSONL/trace/metrics files under it, named
  /// "<workload>-<policy>-<schedule seed>" so a campaign's jobs never
  /// collide.  Minimization probes never flush regardless.
  std::string telemetry_dir;
};

struct ChaosJobResult {
  int index = 0;
  std::string workload;  ///< label, e.g. "SD+SA"
  std::string policy;    ///< "even" or "dase-fair"
  std::string schedule;  ///< FaultSchedule spec string
  ChaosOutcome outcome = ChaosOutcome::kRecovered;
  std::string error_kind;  ///< SimError kind when one was thrown
  std::string detail;      ///< one-line reason for the classification
  Cycle final_cycle = 0;
  u64 retries_issued = 0;
  u64 duplicates_absorbed = 0;
  u64 sanitized_estimates = 0;
  /// Governor clamps/rejects/holds/trips/aborts over the job (emitted in
  /// the JSONL line only when nonzero, keeping healthy lines byte-stable).
  u64 governor_interventions = 0;
  /// Minimal reproducer (set when minimization ran on a failing job).
  std::string minimized_schedule;
  std::size_t minimized_events = 0;
  /// Ready-to-paste gpusim_cli command replaying this job.
  std::string replay;
  bool from_checkpoint = false;
  /// Canonical JSONL serialization of this result (also the checkpoint
  /// line); resumed jobs carry their stored line verbatim, which is what
  /// makes interrupted + resumed reports byte-identical to fresh ones.
  std::string json;
};

struct ChaosReport {
  int schedules = 0;
  u64 seed = 0;
  Cycle cycles = 0;
  bool recovery = true;
  int resumed = 0;
  /// Torn or stale checkpoint lines skipped (with a stderr warning) while
  /// resuming; their jobs re-ran.  Not serialized: the report bytes do not
  /// depend on whether a crash happened.
  int torn_lines_skipped = 0;
  std::vector<ChaosJobResult> jobs;  ///< index order

  int count(ChaosOutcome outcome) const;
  /// Deterministic report: index-ordered jobs, no timestamps, %.17g
  /// doubles — byte-identical for identical options.
  std::string to_json() const;
};

/// Deterministic random schedule for one campaign job.  Mixes windowed
/// stalls, drops, NACKs, bit flips, misroutes and (rarely) stall-forever
/// events, all timed inside `cycles`.
FaultSchedule random_fault_schedule(u64 seed, Cycle cycles,
                                    int num_partitions, int max_events);

/// Runs one workload under one schedule and classifies the outcome.
/// `dase_fair` selects the DASE-Fair repartitioning policy instead of the
/// static even split.  This exact function also backs the CLI's
/// --fault-schedule replay, so a minimized reproducer replays through the
/// same code path that found it.
ChaosJobResult run_chaos_job(const ChaosOptions& opts,
                             const Workload& workload, bool dase_fair,
                             const FaultSchedule& schedule);

/// Greedy event-removal delta debugging: repeatedly re-runs the job with
/// one event removed and keeps the removal whenever the failure class is
/// preserved, until no single event can be dropped.
FaultSchedule minimize_failing_schedule(const ChaosOptions& opts,
                                        const Workload& workload,
                                        bool dase_fair,
                                        const FaultSchedule& schedule,
                                        ChaosOutcome failure);

/// Runs the whole campaign (resuming from the checkpoint when present).
ChaosReport run_chaos_campaign(const ChaosOptions& opts);

}  // namespace gpusim
