#include "harness/runner.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "baselines/priority_epochs.hpp"
#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "dase/dase_model.hpp"
#include "kernels/app_registry.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/crash_bundle.hpp"
#include "metrics/metrics.hpp"
#include "sched/dase_fair.hpp"
#include "sched/governor.hpp"
#include "sched/policies.hpp"

namespace gpusim {

u64 harness_app_seed(u64 base_seed, int slot) {
  return base_seed + static_cast<u64>(slot) * 7919;
}

namespace {

constexpr std::pair<PolicyKind, const char*> kPolicyNames[] = {
    {PolicyKind::kEven, "even"},         {PolicyKind::kDaseFair, "dase-fair"},
    {PolicyKind::kLeftover, "leftover"}, {PolicyKind::kTemporal, "temporal"},
    {PolicyKind::kDaseQos, "qos"},
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
  std::vector<std::string> split;
  if (sm_split != nullptr) {
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
  number("temporal_quantum", std::to_string(rc.temporal.quantum));
  number("qos_app", std::to_string(rc.qos.qos_app));
  text("qos_target_slowdown", fmt_double(rc.qos.target_slowdown));
  text("qos_release_margin", fmt_double(rc.qos.release_margin));
  number("qos_warmup_intervals", std::to_string(rc.qos.warmup_intervals));
  number("qos_min_sms_per_app", std::to_string(rc.qos.min_sms_per_app));
  return out;
}

CoRunSpec parse_corun_identity(const std::string& text) {
  const auto malformed = [](const char* key) {
    return SimError(SimErrorKind::kSnapshot, "harness.runner",
                    "co-run identity key is missing or malformed")
        .detail("key", key);
  };
  const auto text_of = [&](const char* key) {
    const std::optional<std::string> value = json_string_field(text, key);
    SIM_CHECK(value.has_value(), malformed(key));
    return *value;
  };
  const auto number_of = [&](const char* key) {
    const std::optional<u64> value = json_u64_field(text, key);
    SIM_CHECK(value.has_value(), malformed(key));
    return *value;
  };
  const auto int_of = [&](const char* key) {
    const u64 value = number_of(key);
    SIM_CHECK(value <= static_cast<u64>(INT_MAX), malformed(key));
    return static_cast<int>(value);
  };
  const auto double_of = [&](const char* key) {
    const std::string value = text_of(key);
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    SIM_CHECK(!value.empty() && *end == '\0', malformed(key));
    return parsed;
  };

  CoRunSpec spec;
  for (const std::string& abbr : split_csv(text_of("apps"))) {
    const std::optional<KernelProfile> profile = find_app(abbr);
    SIM_CHECK(profile.has_value(),
              SimError(SimErrorKind::kSnapshot, "harness.runner",
                       "co-run identity names an application this build's "
                       "registry does not know")
                  .detail("app", abbr));
    spec.workload.apps.push_back(*profile);
  }
  SIM_CHECK(!spec.workload.apps.empty(), malformed("apps"));
  spec.rc.base_seed = number_of("base_seed");
  spec.rc.co_run_cycles = number_of("co_run_cycles");
  spec.models = parse_model_set(text_of("models"));
  spec.policy = parse_policy_kind(text_of("policy"));
  for (const std::string& sms : split_csv(text_of("sm_split"))) {
    char* end = nullptr;
    const long parsed = std::strtol(sms.c_str(), &end, 10);
    SIM_CHECK(*end == '\0' && parsed >= 0 && parsed <= 1'000'000,
              malformed("sm_split"));
    spec.sm_split.push_back(static_cast<int>(parsed));
  }
  spec.rc.faults = FaultSchedule::parse(text_of("faults"));
  spec.rc.temporal.quantum = number_of("temporal_quantum");
  spec.rc.qos.qos_app = int_of("qos_app");
  spec.rc.qos.target_slowdown = double_of("qos_target_slowdown");
  spec.rc.qos.release_margin = double_of("qos_release_margin");
  spec.rc.qos.warmup_intervals = int_of("qos_warmup_intervals");
  spec.rc.qos.min_sms_per_app = int_of("qos_min_sms_per_app");
  return spec;
}

u64 corun_fingerprint(const Simulation& sim, const std::string& identity) {
  Hasher h;
  h.put_tag("HCTX");
  h.put_string(identity);
  return simulation_fingerprint(sim, h.digest());
}

namespace {

/// Snapshot file for one workload: "<dir>/<label>.simstate" with every
/// character a filesystem might dislike replaced by '_'.
std::string snapshot_path_for(const std::string& dir,
                              const std::string& label) {
  std::string name;
  name.reserve(label.size());
  for (char c : label) {
    const bool safe = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '-' || c == '_' || c == '.' || c == '+';
    name += safe ? c : '_';
  }
  return (std::filesystem::path(dir) / (name + ".simstate")).string();
}

/// Applies the RunConfig's limit fields to one Simulation.  The cycle and
/// memory budgets only guard the co-run (`co_run` true): alone runs are
/// already capped by max_alone_cycles (replays) or co_run_cycles
/// (characterization).
void apply_limits(const RunConfig& rc, Simulation& sim, bool co_run) {
  if (rc.wall_deadline != std::chrono::steady_clock::time_point{}) {
    sim.set_wall_deadline(rc.wall_deadline);
  }
  if (rc.cancel != nullptr) sim.set_cancel(rc.cancel);
  if (co_run) {
    if (rc.cycle_budget != 0) sim.set_cycle_budget(rc.cycle_budget);
    if (rc.mem_budget != 0) sim.set_mem_budget(rc.mem_budget);
  }
}

}  // namespace

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

  std::vector<AppLaunch> launches;
  launches.reserve(n);
  for (int i = 0; i < n; ++i) {
    launches.push_back(
        AppLaunch{workload.apps[i], harness_app_seed(rc.base_seed, i)});
  }

  CoRunAssembly a;
  a.sim = std::make_unique<Simulation>(rc.gpu, std::move(launches));
  Simulation& sim = *a.sim;
  sim.set_watchdog(rc.watchdog_cycles);
  apply_limits(rc, sim, /*co_run=*/true);
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
  } else if (policy == PolicyKind::kLeftover) {
    // Every registered kernel's grid occupies the full GPU, so the first
    // application takes everything and the rest get the (empty) leftovers.
    gpu.set_partition(leftover_allocation(
        gpu.num_sms(), std::vector<int>(n, gpu.num_sms())));
  } else if (policy == PolicyKind::kTemporal) {
    gpu.set_partition(std::vector<AppId>(gpu.num_sms(), 0));
  } else {
    gpu.set_partition(even_partition(gpu.num_sms(), n));
  }

  // Attach models and (optionally) a scheduling policy.
  const bool need_dase = models.dase || policy == PolicyKind::kDaseFair ||
                         policy == PolicyKind::kDaseQos;
  if (need_dase) {
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
  if (policy == PolicyKind::kDaseQos) {
    a.qos = std::make_unique<DaseQosPolicy>(a.dase.get(), rc.qos);
    sim.add_observer(a.qos.get());
  }
  if (policy == PolicyKind::kTemporal) {
    a.temporal = std::make_unique<TemporalPolicy>(rc.temporal);
    sim.add_cycle_hook(a.temporal.get());
  }
  // The governor must see each epoch *after* the policies acted, and is
  // attached regardless of rc.governor so the observer walk and snapshot
  // shape never depend on the flag; a disabled governor is a pure
  // pass-through.
  a.governor = std::make_unique<PolicyGovernor>(
      GovernorOptions::from_config(rc.gpu, rc.governor), a.dase.get());
  sim.add_observer(a.governor.get());
  if (a.fair) a.fair->set_partition_sink(a.governor.get());
  if (a.qos) a.qos->set_partition_sink(a.governor.get());
  // The telemetry hub is the final observer: each record must capture the
  // epoch as the policies *and* the governor left it.  Like the governor
  // it is attached unconditionally — the output flags only gate flushing —
  // so telemetry on vs. off cannot change the observer walk, the state
  // hash, or any simulated outcome.
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
  a.telemetry = std::make_unique<TelemetryHub>(
      std::move(taps),
      [gov = a.governor.get()] { return gov->interventions(); });
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
  const PolicyGovernor& gov = *assembly.governor;
  ctx.extra_counters = {
      {"governor_clamps", gov.clamps()},
      {"governor_rejects", gov.rejects()},
      {"governor_holds", gov.holds()},
      {"governor_breaker_trips", gov.breaker_trips()},
      {"governor_fallbacks", gov.fallbacks()},
      {"governor_stalls_aborted", gov.stalls_aborted()},
  };
  return ctx;
}

void record_corun_failure(const RunConfig& rc, const Workload& workload,
                          const ModelSet& models, PolicyKind policy,
                          const std::vector<int>* sm_split,
                          const CoRunAssembly& assembly,
                          const std::exception& error,
                          const std::string& telemetry_label,
                          const std::string& anchor_snapshot) {
  const auto* sim_error = dynamic_cast<const SimError*>(&error);
  if (sim_error != nullptr && sim_error->kind() == SimErrorKind::kInterrupted) {
    return;
  }
  const Simulation& sim = *assembly.sim;
  if (sim_error != nullptr && !rc.crash_bundle_dir.empty()) {
    write_crash_bundle(
        rc, corun_identity(rc, workload, models, policy, sm_split),
        workload.label(), sim, *sim_error, anchor_snapshot);
  }
  // The alone baselines were never measured, so the flushed series carry
  // estimate columns but no actual-slowdown columns.
  if (!rc.telemetry.any()) return;
  TelemetryFlushContext ctx =
      corun_telemetry_context(rc, workload, assembly, telemetry_label);
  ctx.crashed = true;
  ctx.crash_kind =
      sim_error != nullptr ? to_string(sim_error->kind()) : "exception";
  ctx.crash_cycle = sim.gpu().now();
  try {
    flush_telemetry(*assembly.telemetry, sim.gpu(),
                    resolve_telemetry_paths(rc.telemetry, telemetry_label),
                    ctx);
  } catch (const std::exception& flush_error) {
    std::fprintf(stderr, "gpusim: telemetry flush failed (%s)\n",
                 flush_error.what());
  }
}

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
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0)
             ? static_cast<Cycle>(parsed)
             : fallback;
}

std::unique_ptr<Simulation> ExperimentRunner::run_alone(
    const KernelProfile& profile, u64 seed,
    std::optional<u64> target_instructions) const {
  auto sim = std::make_unique<Simulation>(
      rc_.gpu, std::vector<AppLaunch>{AppLaunch{profile, seed}});
  sim->set_watchdog(rc_.watchdog_cycles);
  apply_limits(rc_, *sim, /*co_run=*/false);
  Gpu& gpu = sim->gpu();
  gpu.set_partition(even_partition(gpu.num_sms(), 1));
  if (!target_instructions) {
    sim->run(rc_.co_run_cycles);
  } else if (!sim->run_until_instructions(0, *target_instructions,
                                          rc_.max_alone_cycles)) {
    SIM_FAIL(SimError(SimErrorKind::kBudgetExceeded, "harness.runner",
                      "alone replay hit max_alone_cycles before reaching "
                      "the co-run's instruction count")
                 .cycle(gpu.now())
                 .detail("app", profile.abbr)
                 .detail("target_instructions", *target_instructions)
                 .detail("instructions", gpu.instructions().total(0))
                 .detail("max_alone_cycles", rc_.max_alone_cycles));
  }
  if (rc_.verify_conservation) gpu.verify_conservation();
  return sim;
}

AloneStats ExperimentRunner::alone_stats(const KernelProfile& profile) const {
  const std::unique_ptr<Simulation> sim =
      run_alone(profile, harness_app_seed(rc_.base_seed, 0), std::nullopt);
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
  return run_alone(profile, seed, target_instructions)->gpu().now();
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
  DaseQosPolicy* qos = assembly.qos.get();
  TemporalPolicy* temporal = assembly.temporal.get();

  // --- Co-run, with optional SimState checkpointing --------------------
  const bool snapshotting = rc_.snapshot_every > 0;
  std::string snap_path;
  u64 fingerprint = 0;
  if (snapshotting) {
    fingerprint = corun_fingerprint(
        sim, corun_identity(rc_, workload, models, policy, sm_split));
    std::error_code ec;
    std::filesystem::create_directories(rc_.snapshot_dir, ec);
    snap_path = snapshot_path_for(rc_.snapshot_dir, workload.label());
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

  try {
    if (!snapshotting) {
      if (gpu.now() < rc_.co_run_cycles) {
        sim.run(rc_.co_run_cycles - gpu.now());
      }
    } else {
      try {
        while (gpu.now() < rc_.co_run_cycles) {
          const Cycle stride = std::min<Cycle>(rc_.snapshot_every,
                                               rc_.co_run_cycles - gpu.now());
          sim.run(stride);
          // No snapshot after the final stride: the result is about to be
          // reported and the resume point deleted anyway.
          if (gpu.now() < rc_.co_run_cycles) {
            write_snapshot_file(snap_path, sim, fingerprint);
          }
        }
      } catch (const SimError& e) {
        // Graceful shutdown: a cancellation leaves the simulation intact at
        // the interrupt cycle, so persist that exact state before
        // propagating — the resumed run picks it up mid-stride and finishes
        // byte-identically (snapshot timing never shapes simulated state).
        if (e.kind() == SimErrorKind::kInterrupted) {
          write_snapshot_file(snap_path, sim, fingerprint);
        }
        throw;
      }
      std::error_code ec;
      std::filesystem::remove(snap_path, ec);
    }
    // Injected faults intentionally break conservation; the auditor is the
    // mechanism tests use to detect them, so only a clean run self-audits.
    if (rc_.verify_conservation && !rc_.faults.any()) {
      gpu.verify_conservation();
    }
  } catch (const SimError& e) {
    // The last periodic snapshot, when one exists, anchors the bundle.
    record_corun_failure(rc_, workload, models, policy, sm_split, assembly, e,
                         workload.label(), snap_path);
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
    if (app.instructions == 0) {
      // Starved entirely (e.g. LEFTOVER): there is no instruction count to
      // replay, so report the characterization IPC and an effectively
      // unbounded slowdown instead of dividing by zero.
      app.ipc_alone = alone_stats(workload.apps[i]).ipc;
      app.actual_slowdown = 1e6;
    } else {
      const Cycle alone_cycles = measure_alone_cycles(
          workload.apps[i], harness_app_seed(rc_.base_seed, i),
          app.instructions);
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
  if (qos) result.repartitions = qos->adjustments();
  if (temporal) result.repartitions = temporal->switches();
  if (assembly.governor) {
    result.governor_interventions = assembly.governor->interventions();
  }
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
    ctx.repartitions = result.repartitions;
    for (const AppResult& app : result.apps) {
      ctx.ipc_alone.push_back(app.ipc_alone);
    }
    flush_telemetry(*assembly.telemetry, gpu,
                    resolve_telemetry_paths(rc_.telemetry, workload.label()),
                    ctx);
  }
  return result;
}

}  // namespace gpusim
