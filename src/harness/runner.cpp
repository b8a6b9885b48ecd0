#include "harness/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "baselines/priority_epochs.hpp"
#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "metrics/metrics.hpp"
#include "sched/dase_fair.hpp"

namespace gpusim {

u64 harness_app_seed(u64 base_seed, int slot) {
  return base_seed + static_cast<u64>(slot) * 7919;
}

namespace {

constexpr std::pair<PolicyKind, const char*> kPolicyNames[] = {
    {PolicyKind::kEven, "even"},
    {PolicyKind::kDaseFair, "dase-fair"},
};

struct ModelName {
  const char* name;
  bool ModelSet::*flag;
};
constexpr ModelName kModelNames[] = {
    {"dase", &ModelSet::dase},
    {"mise", &ModelSet::mise},
    {"asm", &ModelSet::asm_model},
};

std::string join_csv(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ',';
    out += p;
  }
  return out;
}

/// The applications a co-run launches: slot i seeded with
/// harness_app_seed(base_seed, i), each restarting when its grid finishes.
std::vector<AppLaunch> corun_launches(const RunConfig& rc,
                                      const Workload& workload) {
  std::vector<AppLaunch> launches;
  launches.reserve(workload.apps.size());
  for (std::size_t i = 0; i < workload.apps.size(); ++i) {
    launches.push_back(AppLaunch{
        workload.apps[i], harness_app_seed(rc.base_seed, static_cast<int>(i))});
  }
  return launches;
}

/// The SM count even_partition gives each of `num_apps` applications,
/// or nothing when it cannot give each one an SM.
std::vector<int> even_split(int num_sms, int num_apps) {
  std::vector<int> counts;
  if (num_apps < 1 || num_sms < num_apps) return counts;
  counts.resize(num_apps);
  for (const AppId app : even_partition(num_sms, num_apps)) ++counts[app];
  return counts;
}

}  // namespace

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const char* to_string(PolicyKind policy) {
  for (const auto& [kind, name] : kPolicyNames) {
    if (kind == policy) return name;
  }
  return "?";
}

PolicyKind parse_policy_kind(const std::string& name) {
  std::vector<std::string> known;
  for (const auto& [kind, spelling] : kPolicyNames) {
    if (name == spelling) return kind;
    known.push_back(spelling);
  }
  SIM_FAIL(SimError(SimErrorKind::kConfig, "harness.runner",
                    "unknown scheduling policy name")
               .detail("policy", name)
               .detail("known", join_csv(known)));
}

std::string to_string(const ModelSet& models) {
  std::vector<std::string> names;
  for (const ModelName& m : kModelNames) {
    if (models.*m.flag) names.push_back(m.name);
  }
  return join_csv(names);
}

ModelSet parse_model_set(const std::string& names) {
  ModelSet models{.dase = false};
  for (const std::string& name : split_csv(names)) {
    const ModelName* match = nullptr;
    for (const ModelName& m : kModelNames) {
      if (name == m.name) match = &m;
    }
    SIM_CHECK(match != nullptr,
              SimError(SimErrorKind::kConfig, "harness.runner",
                       "unknown slowdown model name")
                  .detail("model", name)
                  .detail("known", "dase,mise,asm"));
    models.*match->flag = true;
  }
  return models;
}

std::string corun_identity(const RunConfig& rc, const Workload& workload,
                           const ModelSet& models, PolicyKind policy,
                           const std::vector<int>* sm_split) {
  std::vector<std::string> apps;
  for (const KernelProfile& app : workload.apps) apps.push_back(app.abbr);
  // A split equal to the even one assembles the same partition as none.
  std::vector<std::string> split;
  if (sm_split != nullptr &&
      *sm_split != even_split(rc.gpu.num_sms,
                              static_cast<int>(workload.apps.size()))) {
    for (int sms : *sm_split) split.push_back(std::to_string(sms));
  }
  std::string out;
  const auto text = [&out](const char* key, const std::string& value) {
    out += "  \"" + std::string(key) + "\": \"" + json_escape(value) + "\",\n";
  };
  const auto number = [&out](const char* key, const std::string& value) {
    out += "  \"" + std::string(key) + "\": " + value + ",\n";
  };
  text("apps", join_csv(apps));
  number("base_seed", std::to_string(rc.base_seed));
  number("co_run_cycles", std::to_string(rc.co_run_cycles));
  text("models", to_string(models));
  text("policy", to_string(policy));
  text("sm_split", join_csv(split));
  // An armed fault schedule shapes the run as much as the policy does; a
  // snapshot taken under one schedule must not restore under another.
  text("faults", rc.faults.any() ? rc.faults.to_string() : std::string());
  return out;
}

u64 corun_fingerprint(const RunConfig& rc, const Workload& workload,
                      const ModelSet& models, PolicyKind policy,
                      const std::vector<int>* sm_split) {
  Hasher h;
  h.put_tag("HCTX");
  h.put_string(corun_identity(rc, workload, models, policy, sm_split));
  return simulation_fingerprint(rc.gpu, corun_launches(rc, workload),
                                h.digest());
}

CoRunAssembly::CoRunAssembly() = default;
CoRunAssembly::CoRunAssembly(CoRunAssembly&&) noexcept = default;
CoRunAssembly& CoRunAssembly::operator=(CoRunAssembly&&) noexcept = default;
CoRunAssembly::~CoRunAssembly() = default;

CoRunAssembly assemble_corun(const RunConfig& rc, const Workload& workload,
                             const ModelSet& models, PolicyKind policy,
                             const std::vector<int>* sm_split) {
  const int n = static_cast<int>(workload.apps.size());
  SIM_CHECK(n >= 1 && n <= kMaxApps,
            SimError(SimErrorKind::kHarness, "harness.runner",
                     "workload must name between 1 and kMaxApps applications")
                .detail("workload", workload.label())
                .detail("num_apps", n)
                .detail("kMaxApps", kMaxApps));

  CoRunAssembly a;
  a.sim = std::make_unique<Simulation>(rc.gpu, corun_launches(rc, workload));
  Simulation& sim = *a.sim;
  sim.set_watchdog(rc.watchdog_cycles);
  sim.set_cancel(rc.cancel);
  if (rc.profiler != nullptr) sim.set_loop_profiler(rc.profiler);
  Gpu& gpu = sim.gpu();

  if (rc.faults.any()) {
    a.injector = std::make_unique<FaultInjector>(rc.faults);
    gpu.set_fault_injector(a.injector.get());
  }

  // Partition the SMs.
  if (sm_split != nullptr) {
    SIM_CHECK(static_cast<int>(sm_split->size()) == n,
              SimError(SimErrorKind::kHarness, "harness.runner",
                       "sm_split must list one SM count per application")
                  .detail("split_entries", sm_split->size())
                  .detail("num_apps", n));
    std::vector<AppId> assignment;
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < (*sm_split)[i]; ++k) {
        assignment.push_back(i);
      }
    }
    SIM_CHECK(static_cast<int>(assignment.size()) <= gpu.num_sms(),
              SimError(SimErrorKind::kHarness, "harness.runner",
                       "sm_split assigns more SMs than the GPU has")
                  .detail("assigned", assignment.size())
                  .detail("num_sms", gpu.num_sms()));
    assignment.resize(gpu.num_sms(), kInvalidApp);
    gpu.set_partition(assignment);
  } else {
    gpu.set_partition(even_partition(gpu.num_sms(), n));
  }

  // Attach models and (optionally) a scheduling policy.
  if (models.dase || policy == PolicyKind::kDaseFair) {
    a.dase = std::make_unique<DaseModel>();
    sim.add_observer(a.dase.get());
  }
  if (models.mise) {
    a.mise = std::make_unique<MiseModel>();
    sim.add_observer(a.mise.get());
  }
  if (models.asm_model) {
    a.asm_model = std::make_unique<AsmModel>();
    sim.add_observer(a.asm_model.get());
  }
  if (models.any_epoch_model()) {
    a.epochs = std::make_unique<PriorityEpochDriver>(
        PriorityEpochDriver::with_defaults(rc.gpu, n));
    sim.add_cycle_hook(a.epochs.get());
  }
  if (policy == PolicyKind::kDaseFair) {
    a.fair = std::make_unique<DaseFairPolicy>(a.dase.get());
    sim.add_observer(a.fair.get());
  }
  // The telemetry hub is the final observer: each record must capture the
  // epoch as the policies left it.  It is attached unconditionally — the
  // output flags only gate flushing — so telemetry on vs. off cannot
  // change the observer walk, the state hash, or any simulated outcome.
  std::vector<TelemetryEstimatorTap> taps;
  if (a.dase) {
    taps.push_back({"DASE", a.dase.get()});
    a.telemetry_estimators.push_back("DASE");
  }
  if (a.mise) {
    taps.push_back({"MISE", a.mise.get()});
    a.telemetry_estimators.push_back("MISE");
  }
  if (a.asm_model) {
    taps.push_back({"ASM", a.asm_model.get()});
    a.telemetry_estimators.push_back("ASM");
  }
  a.telemetry = std::make_unique<TelemetryHub>(std::move(taps));
  sim.add_observer(a.telemetry.get());
  return a;
}

TelemetryFlushContext corun_telemetry_context(const RunConfig& rc,
                                              const Workload& workload,
                                              const CoRunAssembly& assembly,
                                              const std::string& label) {
  TelemetryFlushContext ctx;
  ctx.label = label;
  for (const KernelProfile& app : workload.apps) ctx.apps.push_back(app.abbr);
  ctx.estimators = assembly.telemetry_estimators;
  ctx.interval_length = rc.gpu.estimation_interval;
  ctx.final_cycle = assembly.sim->gpu().now();
  ctx.profiler = rc.profiler;
  return ctx;
}

namespace {

/// What a co-run leaves when `error` ends it: the telemetry recorded so
/// far, flushed with a crash marker when rc.telemetry asks for files.
/// kInterrupted leaves nothing: a graceful drain is not a crash, and the
/// auto-resume snapshot already keeps its state.  Never throws.
void record_corun_failure(const RunConfig& rc, const Workload& workload,
                          const CoRunAssembly& assembly,
                          const SimError& error) {
  if (error.kind() == SimErrorKind::kInterrupted || !rc.telemetry.any()) {
    return;
  }
  // The alone baselines were never measured, so the flushed series carry
  // estimate columns but no actual-slowdown columns.
  TelemetryFlushContext ctx =
      corun_telemetry_context(rc, workload, assembly, workload.label());
  ctx.crashed = true;
  ctx.crash_kind = to_string(error.kind());
  ctx.crash_cycle = assembly.sim->gpu().now();
  try {
    flush_telemetry(*assembly.telemetry,
                    resolve_telemetry_paths(rc.telemetry, workload.label()),
                    ctx);
  } catch (const std::exception& flush_error) {
    std::fprintf(stderr, "gpusim: telemetry flush failed (%s)\n",
                 flush_error.what());
  }
}

}  // namespace

double AppResult::estimation_error_of(const std::string& model) const {
  const auto it = estimates.find(model);
  if (it == estimates.end()) {
    std::string available;
    for (const auto& [name, value] : estimates) {
      if (!available.empty()) available += ", ";
      available += name;
    }
    SIM_FAIL(SimError(SimErrorKind::kHarness, "harness.runner",
                      "no estimate recorded for the requested model — was it "
                      "enabled in the ModelSet?")
                 .detail("requested_model", model)
                 .detail("app", abbr)
                 .detail("available_models",
                         available.empty() ? "(none)" : available));
  }
  return estimation_error(it->second, actual_slowdown);
}

double CoRunResult::mean_error_of(const std::string& model) const {
  std::vector<double> errors;
  errors.reserve(apps.size());
  for (const AppResult& a : apps) errors.push_back(a.estimation_error_of(model));
  return mean(errors);
}

Cycle cycles_from_env(const char* name, Cycle fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::string text = value;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, nullptr, 10);
  SIM_CHECK(text.find_first_not_of("0123456789") == std::string::npos &&
                errno == 0 && parsed > 0,
            SimError(SimErrorKind::kConfig, "harness.runner",
                     "environment variable must be a positive decimal "
                     "integer")
                .detail("variable", name)
                .detail("value", text));
  return static_cast<Cycle>(parsed);
}

int count_from_env(const char* name, int fallback) {
  const Cycle count = cycles_from_env(name, static_cast<Cycle>(fallback));
  SIM_CHECK(count <= static_cast<Cycle>(INT_MAX),
            SimError(SimErrorKind::kConfig, "harness.runner",
                     "environment variable exceeds the largest count")
                .detail("variable", name)
                .detail("value", count)
                .detail("max", INT_MAX));
  return static_cast<int>(count);
}

namespace {

/// Co-run steps end on multiples of this many cycles, and each chased replay
/// advances at most this many cycles per run_until_instructions call.
constexpr Cycle kCoRunStep = 4096;

/// How long a chasing helper sleeps between looks at the published count
/// once it has caught up.  The co-run does not notify it: a wake from the
/// busy co-run thread can queue the helper on the co-run's own CPU when
/// the helper's CPU has gone idle, and the two then take turns instead of
/// running side by side.  On a 4-vCPU KVM guest that cost the co-run as
/// much wall time as the helper used CPU, and so did timed sleeps of 1 ms
/// or more; a 200 us timed wait kept both on their own CPUs for a few
/// percent of one CPU.
constexpr std::chrono::microseconds kChasePoll{200};

/// Builds an alone simulation: `profile` on all SMs under the watchdog and
/// the cancel flag.
std::unique_ptr<Simulation> alone_simulation(const RunConfig& rc,
                                             const KernelProfile& profile,
                                             u64 seed) {
  auto sim = std::make_unique<Simulation>(
      rc.gpu, std::vector<AppLaunch>{AppLaunch{profile, seed}});
  sim->set_watchdog(rc.watchdog_cycles);
  sim->set_cancel(rc.cancel);
  Gpu& gpu = sim->gpu();
  gpu.set_partition(even_partition(gpu.num_sms(), 1));
  return sim;
}

/// Ends an exact replay that stopped at its target or at max_alone_cycles:
/// raises SimError(kBudgetExceeded) when it never issued
/// `target_instructions`, otherwise audits request conservation and returns
/// the cycle it stopped on.
Cycle finish_replay(const RunConfig& rc, const KernelProfile& profile,
                    const Simulation& sim, u64 target_instructions) {
  const Gpu& gpu = sim.gpu();
  if (gpu.instructions().total(0) < target_instructions) {
    SIM_FAIL(SimError(SimErrorKind::kBudgetExceeded, "harness.runner",
                      "alone replay hit max_alone_cycles before reaching "
                      "the co-run's instruction count")
                 .cycle(gpu.now())
                 .detail("app", profile.abbr)
                 .detail("target_instructions", target_instructions)
                 .detail("instructions", gpu.instructions().total(0))
                 .detail("max_alone_cycles", rc.max_alone_cycles));
  }
  if (rc.verify_conservation) gpu.verify_conservation();
  return gpu.now();
}

/// One slot's exact replay, run on a helper thread while its co-run runs.
/// The co-run publishes the slot's instruction count after every step, and
/// the helper resumes run_until_instructions up to each published count, at
/// most kCoRunStep cycles per call so that abandon() is prompt; it polls
/// for new counts every kChasePoll, and finish() and abandon() wake it.  A
/// count only grows, and a resumed replay stops on the cycle one call with
/// the last target stops on, so finish() returns what measure_alone_cycles
/// returns for the final count.  The alone simulation is built on the
/// calling thread and freed with this object.
class ReplayChase {
 public:
  ReplayChase(const RunConfig& rc, const KernelProfile& profile, u64 seed)
      : rc_(rc),
        profile_(profile),
        sim_(alone_simulation(rc, profile, seed)),
        helper_([this] { chase(); }) {}
  ~ReplayChase() { abandon(); }
  ReplayChase(const ReplayChase&) = delete;
  ReplayChase& operator=(const ReplayChase&) = delete;

  /// The slot's app has issued `instructions` in the co-run so far.
  void publish(u64 instructions) {
    std::lock_guard<std::mutex> lock(mu_);
    published_ = instructions;
  }

  /// The co-run ended with the slot's app at `instructions`: waits for the
  /// replay and returns its cycle, or rethrows the replay's error.
  Cycle finish(u64 instructions) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      published_ = instructions;
      final_ = true;
    }
    cv_.notify_one();
    helper_.join();
    if (error_) std::rethrow_exception(error_);
    return cycles_;
  }

  /// Stops the replay without a result and joins the helper.
  void abandon() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      abandoned_ = true;
    }
    cv_.notify_one();
    if (helper_.joinable()) helper_.join();
  }

 private:
  void chase() {
    try {
      const Gpu& gpu = sim_->gpu();
      const auto behind = [&](u64 target) {
        return gpu.instructions().total(0) < target &&
               gpu.now() < rc_.max_alone_cycles;
      };
      u64 target = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          while (!abandoned_ && !final_ && !behind(published_)) {
            cv_.wait_for(lock, kChasePoll);
          }
          if (abandoned_) return;
          target = published_;
          if (final_ && !behind(target)) break;
        }
        sim_->run_until_instructions(
            0, target, std::min(kCoRunStep, rc_.max_alone_cycles - gpu.now()));
      }
      cycles_ = finish_replay(rc_, profile_, *sim_, target);
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  const RunConfig& rc_;
  const KernelProfile& profile_;
  const std::unique_ptr<Simulation> sim_;
  std::mutex mu_;
  std::condition_variable cv_;
  u64 published_ = 0;       // guarded by mu_
  bool final_ = false;      // guarded by mu_
  bool abandoned_ = false;  // guarded by mu_
  // Written by the helper, read after it is joined.
  Cycle cycles_ = 0;
  std::exception_ptr error_;
  std::thread helper_;
};

}  // namespace

AloneStats ExperimentRunner::alone_stats(const KernelProfile& profile) const {
  const std::unique_ptr<Simulation> sim =
      alone_simulation(rc_, profile, harness_app_seed(rc_.base_seed, 0));
  sim->run(rc_.co_run_cycles);
  if (rc_.verify_conservation) sim->gpu().verify_conservation();
  const Gpu& gpu = sim->gpu();
  AloneStats stats;
  stats.ipc = static_cast<double>(gpu.instructions().total(0)) / gpu.now();
  u64 data_cycles = 0;
  u64 served = 0;
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const McCounters& mcc = gpu.partition(p).mc().counters();
    data_cycles += mcc.bus_data_cycles.total(0);
    served += mcc.requests_served.total(0);
  }
  const double capacity =
      static_cast<double>(gpu.num_partitions()) * gpu.now();
  stats.bw_util = data_cycles / capacity;
  stats.served_per_kcycle = 1000.0 * served / gpu.now();
  return stats;
}

Cycle ExperimentRunner::measure_alone_cycles(const KernelProfile& profile,
                                             u64 seed,
                                             u64 target_instructions) const {
  const std::unique_ptr<Simulation> sim =
      alone_simulation(rc_, profile, seed);
  sim->run_until_instructions(0, target_instructions, rc_.max_alone_cycles);
  return finish_replay(rc_, profile, *sim, target_instructions);
}

CoRunResult ExperimentRunner::run(const Workload& workload,
                                  const ModelSet& models, PolicyKind policy,
                                  const std::vector<int>* sm_split) const {
  const int n = static_cast<int>(workload.apps.size());
  CoRunAssembly assembly =
      assemble_corun(rc_, workload, models, policy, sm_split);
  Simulation& sim = *assembly.sim;
  Gpu& gpu = sim.gpu();
  DaseModel* dase = assembly.dase.get();
  MiseModel* mise = assembly.mise.get();
  AsmModel* asm_model = assembly.asm_model.get();
  DaseFairPolicy* fair = assembly.fair.get();

  // --- Co-run, with optional SimState checkpointing --------------------
  const bool snapshotting = rc_.snapshot_every > 0;
  std::string snap_path;
  u64 fingerprint = 0;
  if (snapshotting) {
    fingerprint = corun_fingerprint(rc_, workload, models, policy, sm_split);
    std::error_code ec;
    std::filesystem::create_directories(rc_.snapshot_dir, ec);
    snap_path = (std::filesystem::path(rc_.snapshot_dir) /
                 (label_file_stem(workload.label()) + ".simstate"))
                    .string();
    if (std::filesystem::exists(snap_path)) {
      // Auto-resume: a leftover file from a killed run.  Stale files
      // (different config/workload/identity, torn writes) are detected
      // before any state is loaded, so they can be skipped safely; a
      // failure *after* loading means save/load asymmetry — a bug — and
      // the partially loaded simulation must not keep running.
      try {
        const SnapshotHeader hdr =
            restore_snapshot_file(snap_path, sim, fingerprint);
        std::fprintf(stderr,
                     "gpusim: resumed %s from snapshot %s at cycle %llu\n",
                     workload.label().c_str(), snap_path.c_str(),
                     static_cast<unsigned long long>(hdr.cycle));
      } catch (const SimError& e) {
        if (gpu.now() != 0) throw;
        std::fprintf(stderr,
                     "gpusim: ignoring unusable snapshot %s (%s)\n",
                     snap_path.c_str(), e.what());
      }
    }
  }

  // The co-run advances in steps that end on multiples of kCoRunStep and
  // on snapshot strides; after each step every slot's replay, on its own
  // helper thread, resumes up to its app's count so far.
  std::vector<std::unique_ptr<ReplayChase>> chases;
  chases.reserve(n);
  for (int i = 0; i < n; ++i) {
    chases.push_back(std::make_unique<ReplayChase>(
        rc_, workload.apps[i], harness_app_seed(rc_.base_seed, i)));
  }
  try {
    try {
      const Cycle stride =
          snapshotting ? rc_.snapshot_every : rc_.co_run_cycles;
      Cycle stride_end = gpu.now();
      while (gpu.now() < rc_.co_run_cycles) {
        if (gpu.now() == stride_end) {
          stride_end += std::min(stride, rc_.co_run_cycles - gpu.now());
        }
        const Cycle step_end = std::min(
            stride_end, (gpu.now() / kCoRunStep + 1) * kCoRunStep);
        sim.run(step_end - gpu.now());
        for (int i = 0; i < n; ++i) {
          chases[i]->publish(gpu.instructions().total(i));
        }
        // No snapshot after the final stride: the result is about to be
        // reported and the resume point deleted anyway.
        if (snapshotting && gpu.now() == stride_end &&
            gpu.now() < rc_.co_run_cycles) {
          write_snapshot_file(snap_path, sim, fingerprint);
        }
      }
    } catch (const SimError& e) {
      // Graceful shutdown: a cancellation leaves the simulation intact
      // at the interrupt cycle, so persist that exact state before
      // propagating — the resumed run picks it up mid-stride and
      // finishes byte-identically (snapshot timing never shapes
      // simulated state).
      if (snapshotting && e.kind() == SimErrorKind::kInterrupted) {
        write_snapshot_file(snap_path, sim, fingerprint);
      }
      throw;
    }
    if (snapshotting) {
      std::error_code ec;
      std::filesystem::remove(snap_path, ec);
    }
    // Under fault injection too: a dropped packet must surface as a typed
    // conservation failure, never as a result.
    if (rc_.verify_conservation) gpu.verify_conservation();
  } catch (const SimError& e) {
    for (const auto& chase : chases) chase->abandon();
    record_corun_failure(rc_, workload, assembly, e);
    throw;
  }

  CoRunResult result;
  result.label = workload.label();
  result.cycles = gpu.now();
  result.apps.resize(n);

  std::vector<double> actual_slowdowns(n);
  for (int i = 0; i < n; ++i) {
    AppResult& app = result.apps[i];
    app.abbr = workload.apps[i].abbr;
    app.instructions = gpu.instructions().total(i);
    app.ipc_shared =
        static_cast<double>(app.instructions) / result.cycles;
    // Chases finish in slot order, so the first slot whose replay failed
    // raises its error, as in a sequential replay; each is freed once done.
    if (app.instructions == 0) {
      // Starved by a zero-SM split: there is no instruction count to
      // replay, so report the characterization IPC and an effectively
      // unbounded slowdown instead of dividing by zero.
      chases[i].reset();
      app.ipc_alone = alone_stats(workload.apps[i]).ipc;
      app.actual_slowdown = 1e6;
    } else {
      const Cycle alone_cycles = chases[i]->finish(app.instructions);
      chases[i].reset();
      app.ipc_alone = static_cast<double>(app.instructions) / alone_cycles;
      app.actual_slowdown = std::max(app.ipc_alone / app.ipc_shared, 1e-3);
    }
    actual_slowdowns[i] = app.actual_slowdown;

    if (models.dase && dase) app.estimates["DASE"] = dase->mean_slowdown(i);
    if (mise) app.estimates["MISE"] = mise->mean_slowdown(i);
    if (asm_model) app.estimates["ASM"] = asm_model->mean_slowdown(i);
  }

  result.unfairness = unfairness(actual_slowdowns);
  result.harmonic_speedup = harmonic_speedup(actual_slowdowns);
  if (fair) result.repartitions = fair->repartitions();
  if (dase) result.sanitized_estimates += dase->sanitized_estimates();
  if (mise) result.sanitized_estimates += mise->sanitized_estimates();
  if (asm_model) result.sanitized_estimates += asm_model->sanitized_estimates();

  // DRAM bandwidth decomposition over the co-run.
  const double capacity =
      static_cast<double>(gpu.num_partitions()) * result.cycles;
  u64 wasted = 0;
  u64 idle = 0;
  result.app_bw_share.assign(n, 0.0);
  for (int p = 0; p < gpu.num_partitions(); ++p) {
    const McCounters& mcc = gpu.partition(p).mc().counters();
    for (int i = 0; i < n; ++i) {
      result.app_bw_share[i] += mcc.bus_data_cycles.total(i) / capacity;
    }
    wasted += mcc.wasted_cycles.total();
    idle += mcc.idle_cycles.total();
  }
  result.wasted_bw_share = wasted / capacity;
  result.idle_bw_share = idle / capacity;

  // Telemetry flush: now that the alone baselines exist, the per-interval
  // records can carry actual-slowdown and Eq. 26 error columns.
  if (rc_.telemetry.any()) {
    TelemetryFlushContext ctx =
        corun_telemetry_context(rc_, workload, assembly, workload.label());
    for (const AppResult& app : result.apps) {
      ctx.ipc_alone.push_back(app.ipc_alone);
    }
    flush_telemetry(*assembly.telemetry,
                    resolve_telemetry_paths(rc_.telemetry, workload.label()),
                    ctx);
  }
  return result;
}

}  // namespace gpusim
