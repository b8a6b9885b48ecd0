// Experiment harness implementing the paper's measurement methodology
// (Section V): run a multiprogrammed workload for a fixed cycle budget,
// then determine each application's *actual* slowdown by replaying the
// same number of instructions alone on the full GPU; attach the requested
// slowdown estimators to the co-run and report their per-application
// estimates alongside.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fault_injection.hpp"
#include "common/loop_profiler.hpp"
#include "kernels/workload_sets.hpp"
#include "telemetry/hub.hpp"

namespace gpusim {

class Simulation;
class DaseModel;
class MiseModel;
class AsmModel;
class PriorityEpochDriver;
class DaseFairPolicy;

struct RunConfig {
  GpuConfig gpu;
  /// Co-run length.  The paper uses 5M cycles; the default here is 300K,
  /// which our stationary synthetic kernels reach steady state well
  /// within (DESIGN.md §2, the run-length substitution).  Override via the
  /// REPRO_CORUN_CYCLES environment variable in the bench binaries.
  Cycle co_run_cycles = 300'000;
  /// Safety cap for the alone-replay runs, in absolute cycles; a replay
  /// that reaches it raises SimError(kBudgetExceeded).  An app whose
  /// slowdown is s needs co_run_cycles / s alone cycles, so 20M covers the
  /// paper's 5M-cycle co-runs down to s = 0.25.
  Cycle max_alone_cycles = 20'000'000;
  u64 base_seed = 42;

  /// Actual slowdowns always come from replaying the co-run's exact
  /// instruction count alone on all SMs (the paper's methodology).  The
  /// single enumerator remains only because the paperbench plan assigns
  /// it; nothing in the library reads this field.
  enum class AloneMode { kExactReplay };
  AloneMode alone_mode = AloneMode::kExactReplay;

  /// Loop profiler attached to the co-run Simulation (nullptr = none;
  /// --profile-loop).  Must outlive the runner calls that use this config.
  LoopProfiler* profiler = nullptr;

  /// SimGuard: progress-watchdog stall threshold applied to every
  /// simulation this runner drives; it also bounds how long an SM drain
  /// may stay pending (0 disables both; default matches
  /// Simulation::kDefaultWatchdogCycles).
  Cycle watchdog_cycles = 1'000'000;
  /// SimGuard: audit end-to-end request conservation after each co-run,
  /// faulted or not; an imbalance raises SimError(kConservation).
  bool verify_conservation = true;
  /// SimGuard: fault schedule to inject into the co-run (empty by default;
  /// tests and the CLI's --fault-schedule use it to prove that the
  /// watchdog and the auditor catch damage).  Alone replays never carry
  /// it.
  FaultSchedule faults;

  // ---- SimState checkpointing (see gpu/snapshot.hpp) ----
  /// Snapshot the co-run every this many cycles (0 disables).  Each
  /// workload writes one "<label>.simstate" file into `snapshot_dir`; when
  /// that file already exists at run() entry with a matching fingerprint,
  /// the co-run resumes from it mid-simulation (so a killed process picks
  /// up where it died, and a run that failed repeats its error from its
  /// last stride), and the file is deleted once the co-run completes.  A
  /// stale or mismatched file is skipped with a warning.
  /// Compatible with fault injection: the injector's progress counters and
  /// RNG ride along in the snapshot, and the schedule is folded into the
  /// snapshot fingerprint.
  Cycle snapshot_every = 0;
  /// Directory for auto-resume snapshot files (created if missing).
  std::string snapshot_dir = ".";

  // ---- Graceful shutdown (see harness/shutdown.hpp) ---------------------
  /// Cooperative cancellation flag (typically the process shutdown flag),
  /// applied to every Simulation this runner drives.  When it turns true
  /// the co-run raises SimError(kInterrupted) at the next sampling point;
  /// with snapshotting enabled, a snapshot is written first so a resumed
  /// run continues byte-identically.
  const std::atomic<bool>* cancel = nullptr;

  // ---- Telemetry (see telemetry/hub.hpp) --------------------------------
  /// Output paths for the per-interval time series and the Chrome trace.
  /// The TelemetryHub observer records regardless (its buffers are
  /// simulated state, serialized in the SimState walk); these paths only
  /// decide whether files get flushed at the end of the co-run, so
  /// enabling them cannot change any simulated outcome.  Batch modes set
  /// `telemetry.dir` and each unit writes per-label files.
  TelemetryPaths telemetry;
};

struct ModelSet {
  bool dase = true;
  bool mise = false;
  bool asm_model = false;
  bool any_epoch_model() const { return mise || asm_model; }
};

/// The entries of a comma-separated list, empty ones skipped: how the CLI
/// and the co-run identity spell app, model and SM-split lists.
std::vector<std::string> split_csv(const std::string& text);

/// CLI/identity spelling of a model list: the enabled names in "dase",
/// "mise", "asm" order, comma-separated ("" when none is on).
std::string to_string(const ModelSet& models);
/// Inverse of to_string(ModelSet); empty entries are skipped.  Throws
/// SimError(kConfig) on an unknown name.  Used by --models.
ModelSet parse_model_set(const std::string& names);

/// The paper's two SM-allocation policies.  A static split other than the
/// even one is an explicit sm_split under kEven; a zero entry starves its
/// application, which is how LEFTOVER (Section II) allocates full-GPU
/// grids: {num_sms, 0, ...}.
enum class PolicyKind {
  kEven,      ///< static split: even, or the given sm_split
  kDaseFair,  ///< the paper's Section VII policy
};

/// CLI/identity spelling of a policy ("even", "dase-fair").
const char* to_string(PolicyKind policy);
/// Inverse of to_string(PolicyKind); throws SimError(kConfig) on an
/// unknown name.  Used by --policy.
PolicyKind parse_policy_kind(const std::string& name);

/// The co-run's identity: every input that shapes simulated state apart
/// from the GpuConfig and the kernel profiles (which simulation_fingerprint
/// hashes).  That is the app abbreviations in slot order, base_seed,
/// co_run_cycles, the models, the policy, the SM split and the armed fault
/// schedule, written as one `"key": value,` line each.  An SM split equal
/// to the even split is written as no split, since it assembles the same
/// co-run.  The snapshot fingerprint hashes exactly this text.  Caller
/// configuration (watchdog, cancel flag, output paths) is not part of it.
std::string corun_identity(const RunConfig& rc, const Workload& workload,
                           const ModelSet& models, PolicyKind policy,
                           const std::vector<int>* sm_split);

/// Fingerprint of the co-run assemble_corun builds from these inputs,
/// computed from the inputs alone: simulation_fingerprint over its launches,
/// with the corun_identity text as the harness context.  Snapshots check
/// it, and a sweep keys its checkpoint lines by it, so a stored state or
/// result only ever meets the co-run it came from.
u64 corun_fingerprint(const RunConfig& rc, const Workload& workload,
                      const ModelSet& models, PolicyKind policy,
                      const std::vector<int>* sm_split);

/// One fully assembled co-run: the Simulation plus owning pointers for
/// every attached model, policy and the fault injector.  Move-only; the
/// observers hold raw pointers into the Simulation (and into each other —
/// DASE-Fair reads the DASE model), so the assembly must outlive any use
/// of `sim`.  Members are null when the corresponding model/policy is not
/// part of the requested ModelSet/PolicyKind.
struct CoRunAssembly {
  CoRunAssembly();
  CoRunAssembly(CoRunAssembly&&) noexcept;
  CoRunAssembly& operator=(CoRunAssembly&&) noexcept;
  ~CoRunAssembly();

  std::unique_ptr<Simulation> sim;
  std::unique_ptr<FaultInjector> injector;  ///< attached iff rc.faults.any()
  std::unique_ptr<DaseModel> dase;
  std::unique_ptr<MiseModel> mise;
  std::unique_ptr<AsmModel> asm_model;
  std::unique_ptr<PriorityEpochDriver> epochs;
  std::unique_ptr<DaseFairPolicy> fair;
  /// Always attached (last observer, so each record sees the epoch as the
  /// policies left it); output flags only gate flushing.
  std::unique_ptr<TelemetryHub> telemetry;
  /// Tap order the hub was assembled with ("DASE"/"MISE"/"ASM"); the flush
  /// context must name the estimate columns in exactly this order.
  std::vector<std::string> telemetry_estimators;
};

/// Builds the co-run simulation exactly as ExperimentRunner::run does:
/// app launches seeded with harness_app_seed, watchdog and cancel flag
/// from `rc`, the fault injector when a schedule is armed, the SM
/// partition for the policy/split, and the model/policy observers in
/// canonical registration order (dase, mise, asm, epochs, fair, telemetry
/// hub last — the order Simulation::load expects back).  Shared
/// by the runner and the determinism audit so a restored snapshot always
/// meets an identically assembled experiment.
CoRunAssembly assemble_corun(const RunConfig& rc, const Workload& workload,
                             const ModelSet& models, PolicyKind policy,
                             const std::vector<int>* sm_split = nullptr);

/// The flush context every co-run's telemetry files share: `label`, the app
/// names, the estimator columns, the interval length, the final cycle and
/// the profiler.  Callers add the alone baselines or a crash marker.
TelemetryFlushContext corun_telemetry_context(const RunConfig& rc,
                                              const Workload& workload,
                                              const CoRunAssembly& assembly,
                                              const std::string& label);

struct AppResult {
  std::string abbr;
  u64 instructions = 0;
  double ipc_shared = 0.0;
  double ipc_alone = 0.0;
  double actual_slowdown = 1.0;
  /// model name ("DASE"/"MISE"/"ASM") -> estimated slowdown (all-SM basis).
  std::map<std::string, double> estimates;

  double estimation_error_of(const std::string& model) const;
};

struct CoRunResult {
  std::string label;
  Cycle cycles = 0;
  std::vector<AppResult> apps;
  double unfairness = 1.0;       // from actual slowdowns
  double harmonic_speedup = 0.0;  // from actual slowdowns
  // DRAM bandwidth decomposition over the co-run (Fig. 2b):
  std::vector<double> app_bw_share;  // fraction of total bus capacity
  double wasted_bw_share = 0.0;
  double idle_bw_share = 0.0;
  u64 repartitions = 0;  // DASE-Fair migrations
  u64 sanitized_estimates = 0;  // estimator outputs clamped, Σ over models

  double mean_error_of(const std::string& model) const;
};

/// Steady-state alone-run characteristics on the full GPU.
struct AloneStats {
  double ipc = 0.0;
  double bw_util = 0.0;             // data cycles / bus capacity
  double served_per_kcycle = 0.0;   // DRAM requests per 1000 cycles
};

/// Holds only its RunConfig: every call builds its own simulations, so one
/// const runner can serve any number of threads at once.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunConfig rc) : rc_(std::move(rc)) {}

  const RunConfig& config() const { return rc_; }

  /// Runs one workload co-run plus its exact alone replays.  `sm_split`,
  /// when given, assigns sm_split[i] SMs to app i (Fig. 8a; a 0 starves
  /// app i); otherwise the partition is even.  PolicyKind::kDaseFair
  /// attaches the DASE-Fair repartitioning policy (forces the DASE model
  /// on).
  ///
  /// Every slot's replay overlaps the co-run: each call starts one helper
  /// thread per app, which resumes that app's replay up to its instruction
  /// count after every co-run step, so n + 1 simulations are live at once.
  /// Every result equals the sequential co-run-then-replays order, errors
  /// included: the co-run's error comes first (the helpers are stopped
  /// before the failure is recorded), then slot 0's replay error, then
  /// slot 1's, and so on.
  CoRunResult run(const Workload& workload, const ModelSet& models,
                  PolicyKind policy = PolicyKind::kEven,
                  const std::vector<int>* sm_split = nullptr) const;

  /// Characterizes one application alone on the full GPU over
  /// RunConfig::co_run_cycles (Table III, Fig. 2b, Fig. 4).  Runs a fresh
  /// simulation on every call.
  AloneStats alone_stats(const KernelProfile& profile) const;

  /// Cycles the application needs alone, on all SMs, to issue
  /// `target_instructions` (the exact-replay measurement).  Throws
  /// SimError(kBudgetExceeded) when RunConfig::max_alone_cycles pass first.
  Cycle measure_alone_cycles(const KernelProfile& profile, u64 seed,
                             u64 target_instructions) const;

 private:
  RunConfig rc_;
};

/// Reads an environment variable as a positive cycle count, falling back
/// to `fallback` when it is unset or empty.  Any other value that is not a
/// positive decimal integer ("5e6", "0", "-1") raises SimError(kConfig)
/// naming the variable and the value.
Cycle cycles_from_env(const char* name, Cycle fallback);

/// cycles_from_env for a count held as an int (pairs, workers): a value
/// above INT_MAX raises SimError(kConfig) naming the variable, where a
/// cast would wrap it to a small or negative count.
int count_from_env(const char* name, int fallback);

/// Seed the harness hands application slot `slot` of a workload.  Exposed
/// so tools building bare Simulations (the determinism auditor, tests) use
/// the exact seeds an ExperimentRunner co-run would.
u64 harness_app_seed(u64 base_seed, int slot);

}  // namespace gpusim
