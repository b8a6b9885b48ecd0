// JobManager — resilient orchestration for long-running job batches.
//
// A *job* is one unit of campaign work: a single co-run, a whole two-app
// sweep, or a chaos campaign.  Batches of heterogeneous jobs are described
// in a plain-text job file (one job per line, see JobSpec::parse) and
// executed through the shared worker pool with the reliability layer long
// campaigns actually need:
//
//   deadlines   every job gets a wall-clock deadline per attempt; a lapsed
//               deadline raises SimError(kDeadlineExceeded) out of the
//               simulation's chunked cycle loop (sampled at the watchdog
//               cadence, so the hot path pays nothing);
//   budgets     optional cycle / DRAM-traffic caps per job
//               (SimError(kBudgetExceeded)) guard runaway configs;
//   retries     the RetryPolicy shared with the sweep
//               (harness/worker_pool.hpp): transient failures (watchdog
//               stalls, exhausted recovery, lapsed deadlines, generic
//               exceptions) retry with exponential backoff + deterministic
//               jitter; config and invariant errors fail fast — retrying
//               them cannot help;
//   quarantine  a circuit breaker counts *consecutive* terminal failures
//               per config key; once the limit is hit, later jobs with the
//               same key are quarantined immediately
//               (SimError(kQuarantined)) and the result carries a
//               ready-to-paste gpusim_cli reproducer command;
//   drain       a graceful-shutdown flag (see shutdown.hpp) stops new work,
//               snapshots the co-run in flight (SimState), and leaves the
//               manifest resumable: `gpusim_cli --jobs-resume <manifest>`
//               re-runs only the unfinished jobs and produces a final
//               report byte-identical to an uninterrupted batch.
//
// The *manifest* is the batch's single source of truth: a JSONL file whose
// header + spec lines pin the batch definition and whose result lines (one
// complete flushed line per finished job, appended by the finishing worker
// through the same common/jsonl.hpp Ledger the sweep and chaos checkpoints
// use) record outcomes.  Resume replays stored result lines verbatim — the
// discipline that makes every batch byte-identical under kill/resume.
//
// Determinism under parallelism: jobs sharing a config key are serialized
// in index order (a later job waits until every earlier same-key job is
// terminal), so the circuit breaker's consecutive-failure sequence — and
// therefore which jobs get quarantined — is identical for every `jobs`
// value.  Keys differ across distinct configs, so unrelated jobs still run
// fully in parallel.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace gpusim {

class Ledger;

enum class JobType : u8 {
  kRun,    ///< one co-run + alone baselines (ExperimentRunner)
  kSweep,  ///< a two-app sweep (SweepRunner)
  kChaos,  ///< a chaos campaign (run_chaos_campaign)
};

const char* to_string(JobType type);

/// One parsed job-file line.  The raw line is kept verbatim for the
/// manifest round-trip: resume re-parses exactly what the fresh batch ran.
struct JobSpec {
  int index = 0;
  JobType type = JobType::kRun;
  std::string raw;

  // run jobs
  std::vector<std::string> apps;       ///< Table III abbreviations
  std::string policy = "even";         ///< "even" | "dase-fair"
  std::string faults;                  ///< FaultSchedule spec ("" = none)

  // sweep jobs
  std::string sweep_which;             ///< "all" | "random:N"

  // chaos jobs
  int chaos_schedules = 0;
  u64 chaos_seed = 1;

  // shared knobs (0 / -1 = inherit the manager default)
  Cycle cycles = 0;
  Cycle watchdog = kInheritWatchdog;
  double deadline_ms = 0.0;
  int max_retries = -1;
  Cycle cycle_budget = 0;
  u64 mem_budget = 0;

  static constexpr Cycle kInheritWatchdog = static_cast<Cycle>(-1);

  /// The circuit breaker's identity: everything that determines the job's
  /// behavior except its index.  Two jobs with equal keys run the same
  /// config, so one crash-looping config quarantines all its instances.
  std::string config_key() const;

  /// Parses one job-file line, e.g.
  ///   run apps=SD,SA policy=dase-fair cycles=100000 watchdog=3000
  ///       faults=stall:part=0,from=10 deadline-ms=5000 max-retries=1
  ///   sweep which=random:6 cycles=40000
  ///   chaos schedules=8 seed=7 cycles=30000
  /// Throws SimError(kConfig) on any malformed token.
  static JobSpec parse(const std::string& line, int index);
};

/// Parses a job file: one job per non-empty line, '#' starts a comment.
/// Throws SimError(kConfig) naming the offending line.
std::vector<JobSpec> parse_job_file(const std::string& path);

enum class JobStatus : u8 {
  kPending,      ///< not run (batch interrupted before/while it ran)
  kOk,           ///< finished successfully
  kFailed,       ///< exhausted its attempts (or failed fast)
  kQuarantined,  ///< circuit breaker refused to run it
};

const char* to_string(JobStatus status);

struct JobResult {
  int index = 0;
  std::string spec_raw;
  JobStatus status = JobStatus::kPending;
  int attempts = 0;
  /// Terminal error identity (kind/component/message only — never the full
  /// what(), whose cycle counts and elapsed times are run-dependent and
  /// would break byte-identical resume).
  std::string error_kind;
  std::string error_component;
  std::string error_message;
  /// Ready-to-paste gpusim_cli command reproducing a failed or
  /// quarantined job's config.
  std::string reproducer;
  /// Engine-specific result payload (single-line JSON): the co-run result
  /// for run jobs, the per-pair entry array for sweeps, the campaign
  /// report for chaos.
  std::string payload_json;
  /// Per-job telemetry output directory (set only when the batch runs with
  /// telemetry enabled; surfaced in the manifest result line so a reader
  /// can find a job's JSONL/trace/metrics files without re-deriving paths).
  std::string telemetry_dir;
  /// Canonical manifest result line; resumed jobs carry their stored line
  /// verbatim, which is what makes interrupted + resumed reports
  /// byte-identical to fresh ones.
  std::string json;
  bool from_manifest = false;
};

struct JobManagerOptions {
  GpuConfig gpu;
  u64 base_seed = 42;
  /// Default co-run / campaign length for specs that omit cycles=.
  Cycle default_cycles = 40'000;
  /// Default per-attempt wall-clock deadline (0 = none) for specs that
  /// omit deadline-ms=.
  double default_deadline_ms = 0.0;
  /// Retries after the first attempt, for transient failures only.
  int max_retries = 2;
  /// Backoff before retry r is `backoff_base_ms << (r-1)` plus a
  /// deterministic jitter derived from (job index, attempt) — RetryPolicy.
  int backoff_base_ms = 10;
  /// Quarantine a config key after this many *consecutive* terminal
  /// failures (success resets the count).
  int quarantine_after = 3;
  /// Worker threads (0 = one per hardware thread; <=1 = serial).  The
  /// final report is byte-identical for every value.
  int jobs = 1;
  /// The batch manifest (JSONL).  Required.
  std::string manifest_path;
  /// Directory for per-job SimState snapshots (default:
  /// manifest_path + ".snaps"; each run job gets its own subdirectory).
  std::string snapshot_dir;
  /// Snapshot cadence for run jobs (0 disables mid-run snapshots; drains
  /// then lose the co-run in flight but stay resumable at job granularity).
  Cycle snapshot_every = 20'000;
  /// Graceful-shutdown flag (typically shutdown_flag()).
  const std::atomic<bool>* cancel = nullptr;
  /// Per-job progress lines on stderr.
  bool verbose = false;
  /// Crash forensics: when non-empty, any terminal SimError inside a job's
  /// co-run (run/sweep jobs) or a guard-caught chaos schedule emits a
  /// crash bundle under this root (see harness/crash_bundle.hpp).  Drains
  /// (kInterrupted) and quarantine refusals never bundle.
  std::string crash_bundle_dir;
  /// Telemetry output root (see telemetry/hub.hpp): when non-empty, every
  /// job flushes per-interval JSONL/trace/metrics files under its own
  /// subdirectory ("<telemetry_dir>/job<index>"), so a batch's jobs never
  /// collide and an interrupted + resumed batch rewrites identical files.
  std::string telemetry_dir;
};

struct JobBatchReport {
  int total = 0;
  int ok = 0;
  int failed = 0;
  int quarantined = 0;
  int pending = 0;
  /// True when the batch drained on the cancel flag; the manifest is the
  /// resume point and exit_code() is 6.
  bool interrupted = false;
  std::vector<JobResult> jobs;  ///< index order, one per spec

  /// Deterministic report (index-ordered jobs, no timestamps, no resume
  /// counters): byte-identical for any worker count, interrupted+resumed
  /// or not.
  std::string to_json() const;

  /// The CLI exit-code contract (documented in gpusim_cli --help):
  ///   6 interrupted (manifest resumable) > 9 any job quarantined >
  ///   7 any deadline-exceeded failure > 8 any budget-exceeded failure >
  ///   1 any other failed job > 0 all ok.
  int exit_code() const;
};

class JobManager {
 public:
  explicit JobManager(JobManagerOptions opts);

  /// Runs a fresh batch: writes the manifest header + spec lines, then
  /// executes every job.  Refuses (SimError(kHarness)) to overwrite a
  /// manifest that already holds results — resume instead.
  JobBatchReport run(const std::vector<JobSpec>& specs);

  /// Resumes the batch recorded in the manifest: stored result lines
  /// replay verbatim, pending jobs re-run (their own sweep/chaos
  /// checkpoints and SimState snapshots resume too).  Torn manifest lines
  /// are skipped with a warning and the affected job re-runs.
  JobBatchReport resume();

  /// Torn manifest lines skipped during the last resume().
  int torn_lines_skipped() const { return torn_lines_skipped_; }

  const JobManagerOptions& options() const { return opts_; }

 private:
  JobBatchReport execute(const std::vector<JobSpec>& specs,
                         std::vector<JobResult> seeded, Ledger& manifest);

  JobManagerOptions opts_;
  int torn_lines_skipped_ = 0;
};

/// The gpusim_cli command that replays one job's exact config (used as the
/// quarantine/failure reproducer).  Exposed for tests.
std::string job_reproducer_command(const JobSpec& spec,
                                   const JobManagerOptions& opts);

}  // namespace gpusim
