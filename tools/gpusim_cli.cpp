// gpusim_cli — run arbitrary multiprogrammed workloads from the command
// line: pick applications, SM policy, estimation models and run length,
// and get the per-application slowdown report.
//
//   gpusim_cli --apps SD,SA
//   gpusim_cli --apps VA,CT,SD,SN --policy dase-fair --cycles 1000000
//   gpusim_cli --apps AA,SD --policy qos --qos-target 1.5
//   gpusim_cli --apps SB,VA --split 4,12 --models dase,mise,asm
//   gpusim_cli --sweep all --checkpoint sweep.jsonl --out sweep.json
//   gpusim_cli --apps SD,SA --snapshot-every 50000 --snapshot-dir snaps
//   gpusim_cli --apps SD,SA --restore snaps/SD+SA.simstate
//   gpusim_cli --apps SD,SA --audit-determinism
//   gpusim_cli --chaos 50 --chaos-seed 7 --cycles 40000 --out chaos.json
//   gpusim_cli --apps SD,SA --cycles 40000 --fault-schedule 'drop-resp:nth=200;seed=7'
//   gpusim_cli --job-file batch.jobs --manifest batch.manifest.jsonl
//   gpusim_cli --jobs-resume batch.manifest.jsonl
//   gpusim_cli --triage crash-bundles/run-SD+SA-c12345
//   gpusim_cli --version
//   gpusim_cli --list-apps
//   gpusim_cli --dump-config > gtx480.cfg ; gpusim_cli --config gtx480.cfg ...
//
// The flag list, the --help text and the exit-code contract all come from
// one table (src/harness/cli_flags.hpp): run `gpusim_cli --help` for the
// authoritative version of both.  SIGINT/SIGTERM drain gracefully in every
// mode — in-flight checkpoint lines flush whole, single runs snapshot, and
// the process exits 6 with everything resumable; a second signal exits
// immediately.
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "common/config_io.hpp"
#include "common/fault_injection.hpp"
#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/chaos.hpp"
#include "harness/cli_flags.hpp"
#include "harness/divergence.hpp"
#include "harness/job_manager.hpp"
#include "harness/runner.hpp"
#include "harness/shutdown.hpp"
#include "harness/sweep.hpp"
#include "harness/table_printer.hpp"
#include "harness/triage.hpp"
#include "kernels/app_registry.hpp"

namespace {

using namespace gpusim;

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << render_usage(argv0);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Strict unsigned parse: the whole token must be a decimal number no less
/// than `min`.  "0x10", "12abc", "-3" and "" are all rejected with a
/// message naming the flag.
u64 parse_u64(const char* argv0, const std::string& flag,
              const std::string& text, u64 min_value) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    usage(argv0, flag + " expects a non-negative integer, got '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    usage(argv0, flag + " value out of range: '" + text + "'");
  }
  if (parsed < min_value) {
    usage(argv0, flag + " must be at least " + std::to_string(min_value) +
                     ", got " + text);
  }
  return static_cast<u64>(parsed);
}

double parse_positive_double(const char* argv0, const std::string& flag,
                             const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !(parsed > 0.0)) {
    usage(argv0, flag + " expects a positive number, got '" + text + "'");
  }
  return parsed;
}

void print_result(const CoRunResult& result, const ModelSet& models) {
  std::cout << "workload " << result.label << ", " << result.cycles
            << " cycles\n\n";
  std::vector<std::string> headers = {"app", "IPC_shared", "IPC_alone",
                                      "actual"};
  if (models.dase) headers.push_back("DASE");
  if (models.mise) headers.push_back("MISE");
  if (models.asm_model) headers.push_back("ASM");
  TablePrinter table(headers);
  table.print_header();
  for (const AppResult& app : result.apps) {
    std::cout.width(12);
    std::cout << app.abbr;
    std::cout.width(12);
    std::cout << TablePrinter::num(app.ipc_shared, 3);
    std::cout.width(12);
    std::cout << TablePrinter::num(app.ipc_alone, 3);
    std::cout.width(12);
    std::cout << (app.actual_slowdown >= 1e5
                      ? std::string("starved")
                      : TablePrinter::num(app.actual_slowdown, 2));
    for (const char* model : {"DASE", "MISE", "ASM"}) {
      if (app.estimates.contains(model)) {
        std::cout.width(12);
        std::cout << TablePrinter::num(app.estimates.at(model), 2);
      }
    }
    std::cout << '\n';
  }
  std::cout << "\nunfairness "
            << (result.unfairness >= 1e5
                    ? std::string(">1e5")
                    : TablePrinter::num(result.unfairness, 2))
            << ", harmonic speedup "
            << TablePrinter::num(result.harmonic_speedup, 3)
            << ", policy actions " << result.repartitions << '\n';
  std::cout << "DRAM bandwidth:";
  for (std::size_t i = 0; i < result.apps.size(); ++i) {
    std::cout << ' ' << result.apps[i].abbr << '='
              << TablePrinter::pct(result.app_bw_share[i]);
  }
  std::cout << " wasted=" << TablePrinter::pct(result.wasted_bw_share)
            << " idle=" << TablePrinter::pct(result.idle_bw_share) << '\n';
  // Only printed when the governor actually intervened, so healthy runs
  // stay byte-identical between --governor and --no-governor.
  if (result.governor_interventions != 0) {
    std::cout << "governor interventions " << result.governor_interventions
              << '\n';
  }
}

int run_sweep(const std::string& which, const RunConfig& rc,
              const ModelSet& models, const SweepOptions& opts,
              const std::string& out_path, const char* argv0) {
  std::vector<Workload> workloads;
  if (which == "all") {
    workloads = all_two_app_workloads();
  } else if (which.rfind("random:", 0) == 0) {
    const u64 count = parse_u64(argv0, "--sweep random:N", which.substr(7), 1);
    workloads = random_two_app_workloads(static_cast<int>(count),
                                         rc.base_seed);
  } else {
    usage(argv0, "--sweep expects 'all' or 'random:N', got '" + which + "'");
  }

  // One ExperimentRunner per worker thread: the runner's alone-IPC cache
  // is mutable state, so workers must not share an instance.  Every runner
  // computes identical cached values, so results do not depend on jobs.
  SweepRunner sweep(opts, SweepRunner::RunFnFactory([&rc, &models]() {
                      auto runner = std::make_shared<ExperimentRunner>(rc);
                      return [runner, &models](const Workload& w) {
                        return runner->run(w, models);
                      };
                    }));
  const std::vector<SweepEntry> entries = sweep.run(workloads);
  if (shutdown_requested()) {
    std::cerr << "gpusim: sweep interrupted — finished pairs are in "
              << (opts.checkpoint_path.empty() ? std::string("(no checkpoint)")
                                               : opts.checkpoint_path)
              << "; rerun the same command to resume\n";
    return 6;
  }
  SweepRunner::write_results(out_path, entries);

  int failed = 0;
  for (const SweepEntry& e : entries) {
    if (!e.ok) {
      ++failed;
      std::cerr << "failed pair " << e.label << " after " << e.attempts
                << " attempts: " << e.error << '\n';
    }
  }
  const int torn = sweep.torn_lines_skipped();
  std::cout << "sweep: " << entries.size() << " pairs ("
            << sweep.resumed() << " resumed from checkpoint, " << failed
            << " failed, " << torn
            << " torn checkpoint lines skipped), results in " << out_path
            << '\n';
  // Torn lines mean a prior run crashed mid-write; the affected pairs
  // re-ran and the results are complete, but signal it distinctly so
  // automation can notice the crash.
  if (failed != 0) return 1;
  return torn != 0 ? 5 : 0;
}

int run_chaos(const RunConfig& rc, int schedules, u64 chaos_seed, int jobs,
              bool recovery, bool minimize, const std::string& checkpoint,
              const std::string& bundle_dir, const std::string& telemetry_dir,
              const std::string& out_path) {
  ChaosOptions opts;
  opts.gpu = rc.gpu;
  opts.schedules = schedules;
  opts.seed = chaos_seed;
  opts.cycles = rc.co_run_cycles;
  opts.jobs = jobs;
  opts.recovery = recovery;
  opts.governor = rc.governor;
  opts.minimize = minimize;
  opts.checkpoint_path = checkpoint;
  opts.base_seed = rc.base_seed;
  opts.cancel = shutdown_flag();
  opts.crash_bundle_dir = bundle_dir;
  opts.telemetry_dir = telemetry_dir;
  const ChaosReport report = run_chaos_campaign(opts);
  if (shutdown_requested()) {
    std::cerr << "gpusim: chaos campaign interrupted — finished schedules "
              << "are in "
              << (checkpoint.empty() ? std::string("(no checkpoint)")
                                     : checkpoint)
              << "; rerun the same command to resume\n";
    return 6;
  }
  atomic_write_file(out_path, report.to_json(), "harness.chaos");

  std::cout << "chaos campaign: " << report.schedules << " schedules ("
            << report.resumed << " resumed from checkpoint), recovery "
            << (report.recovery ? "on" : "off") << "\n  outcomes: "
            << report.count(ChaosOutcome::kRecovered) << " recovered, "
            << report.count(ChaosOutcome::kGuardCaught) << " guard-caught, "
            << report.count(ChaosOutcome::kWrongResult) << " wrong-result, "
            << report.count(ChaosOutcome::kHang)
            << " hang\n  report in " << out_path << '\n';
  for (const ChaosJobResult& job : report.jobs) {
    if (job.outcome == ChaosOutcome::kRecovered) continue;
    std::cout << "  [" << job.index << "] " << job.workload << " "
              << to_string(job.outcome);
    if (!job.minimized_schedule.empty()) {
      std::cout << " (minimized to " << job.minimized_events << " event"
                << (job.minimized_events == 1 ? "" : "s") << ")";
    }
    std::cout << ": " << job.replay << '\n';
  }
  // Same contract as --sweep and --jobs-resume: the report is complete,
  // but torn checkpoint lines mean a prior run crashed mid-write.
  return report.torn_lines_skipped != 0 ? 5 : 0;
}

int run_replay(const RunConfig& rc, const Workload& workload,
               PolicyKind policy, const std::string& spec, bool recovery,
               const std::string& telemetry_dir, const char* argv0) {
  if (policy != PolicyKind::kEven && policy != PolicyKind::kDaseFair) {
    usage(argv0, "--fault-schedule replay supports --policy even|dase-fair");
  }
  ChaosOptions opts;
  opts.gpu = rc.gpu;
  opts.cycles = rc.co_run_cycles;
  opts.recovery = recovery;
  opts.governor = rc.governor;
  opts.base_seed = rc.base_seed;
  opts.crash_bundle_dir = rc.crash_bundle_dir;
  // A replay routes through the chaos engine, so --telemetry-out behaves
  // like the chaos-mode directory form here too.
  opts.telemetry_dir = telemetry_dir;
  const FaultSchedule schedule = FaultSchedule::parse(spec);
  const ChaosJobResult r = run_chaos_job(
      opts, workload, policy == PolicyKind::kDaseFair, schedule);
  std::cout << "chaos replay: workload " << r.workload << ", policy "
            << r.policy << ", " << opts.cycles << " cycles, recovery "
            << (recovery ? "on" : "off") << "\n  schedule "
            << (r.schedule.empty() ? "(empty)" : r.schedule)
            << "\n  outcome " << to_string(r.outcome) << " — " << r.detail
            << "\n  final_cycle " << r.final_cycle << ", retries_issued "
            << r.retries_issued << ", duplicates_absorbed "
            << r.duplicates_absorbed << ", sanitized_estimates "
            << r.sanitized_estimates << '\n';
  return 0;
}

int run_jobs(const JobManagerOptions& opts, const std::string& job_file,
             const std::string& out_path) {
  JobManager manager(opts);
  const JobBatchReport report =
      job_file.empty() ? manager.resume()
                       : manager.run(parse_job_file(job_file));

  if (report.interrupted) {
    std::cerr << "gpusim: job batch interrupted — " << report.ok +
                     report.failed + report.quarantined
              << " of " << report.total << " jobs finished; resume with:\n"
              << "  gpusim_cli --jobs-resume " << opts.manifest_path << '\n';
    return report.exit_code();
  }
  atomic_write_file(out_path, report.to_json(), "harness.jobs");

  std::cout << "job batch: " << report.total << " jobs (" << report.ok
            << " ok, " << report.failed << " failed, " << report.quarantined
            << " quarantined), report in " << out_path << '\n';
  for (const JobResult& r : report.jobs) {
    if (r.status == JobStatus::kOk) continue;
    std::cout << "  [" << r.index << "] " << to_string(r.status) << " ("
              << r.error_kind << "): " << r.error_message;
    if (!r.reproducer.empty()) std::cout << "\n      replay: " << r.reproducer;
    std::cout << '\n';
  }
  const int code = report.exit_code();
  if (code == 0 && manager.torn_lines_skipped() != 0) return 5;
  return code;
}

int run_audit(const RunConfig& rc, const Workload& workload,
              const ModelSet& models, PolicyKind policy,
              const std::vector<int>* sm_split, Cycle hash_every) {
  // Both runs are assembled exactly as a plain run is — models, policy,
  // split, governor, telemetry hub and (under --fault-schedule) identical
  // injectors — so every observer's state is part of the compared hashes.
  // Run A is the production configuration (the activity engine, unless
  // --no-activity-sched); run B is the per-cycle reference walk.  Any
  // state-hash divergence between them is a real bug in the engine.
  const CoRunAssembly a =
      assemble_corun(rc, workload, models, policy, sm_split);
  const CoRunAssembly b =
      assemble_corun(rc, workload, models, policy, sm_split);
  b.sim->set_activity_sched(false);
  const char* mode = rc.activity_sched
                         ? "activity engine vs per-cycle walk"
                         : "per-cycle walk on both sides";
  const DivergenceReport report =
      audit_divergence(*a.sim, *b.sim, rc.co_run_cycles, hash_every);
  std::cout << "determinism audit (" << workload.label() << ", " << mode
            << ", " << rc.co_run_cycles << " cycles, hash every "
            << hash_every << "): " << report.to_string() << '\n';
  return report.diverged ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpusim;

  // Every mode drains on SIGINT/SIGTERM: the unit of work in flight
  // finishes (or snapshots), its checkpoint line flushes whole, and we
  // exit 6 resumable.  A second signal hard-exits.
  install_shutdown_handlers();

  std::vector<std::string> app_names;
  RunConfig rc;
  rc.co_run_cycles = 300'000;
  PolicyKind policy = PolicyKind::kEven;
  ModelSet models{.dase = true};
  std::vector<int> split;
  bool have_split = false;
  std::string sweep_which;
  SweepOptions sweep_opts;
  sweep_opts.jobs = 0;  // CLI default: one worker per hardware thread
  std::string out_path = "sweep_results.json";
  bool have_out = false;
  bool have_snapshot_dir = false;
  bool audit_determinism = false;
  Cycle hash_every = 10'000;
  bool have_hash_every = false;
  bool profile_loop = false;
  int chaos_schedules = 0;
  u64 chaos_seed = 1;
  bool chaos_recovery = true;
  bool chaos_minimize = true;
  bool have_cycles = false;
  std::string fault_spec;
  std::string job_file;
  std::string jobs_resume;
  std::string manifest_path;
  double deadline_ms = 0.0;
  int job_max_retries = 2;
  int quarantine_after = 3;
  bool have_backoff = false;
  std::string bundle_dir = "crash-bundles";
  bool have_bundle_dir = false;
  bool no_bundle = false;
  std::string triage_bundle;
  std::string telemetry_out;
  std::string trace_out;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagInfo* flag = find_flag(arg);
    if (flag == nullptr) usage(argv[0], "unknown flag: " + arg);
    std::string value;
    if (flag->value_name != nullptr) {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      value = argv[++i];
    }
    switch (flag->id) {
      case FlagId::kApps:
        app_names = split_csv(value);
        break;
      case FlagId::kCycles:
        rc.co_run_cycles = parse_u64(argv[0], arg, value, 1);
        have_cycles = true;
        break;
      case FlagId::kPolicy:
        if (value == "even") {
          policy = PolicyKind::kEven;
        } else if (value == "dase-fair") {
          policy = PolicyKind::kDaseFair;
        } else if (value == "leftover") {
          policy = PolicyKind::kLeftover;
        } else if (value == "temporal") {
          policy = PolicyKind::kTemporal;
        } else if (value == "qos") {
          policy = PolicyKind::kDaseQos;
        } else {
          usage(argv[0], "unknown policy: " + value);
        }
        break;
      case FlagId::kSplit:
        split.clear();
        for (const std::string& n : split_csv(value)) {
          split.push_back(
              static_cast<int>(parse_u64(argv[0], "--split entry", n, 1)));
        }
        have_split = true;
        break;
      case FlagId::kModels:
        models = ModelSet{};
        for (const std::string& m : split_csv(value)) {
          if (m == "dase") {
            models.dase = true;
          } else if (m == "mise") {
            models.mise = true;
          } else if (m == "asm") {
            models.asm_model = true;
          } else {
            usage(argv[0], "unknown model: " + m);
          }
        }
        break;
      case FlagId::kQosTarget:
        rc.qos.target_slowdown = parse_positive_double(argv[0], arg, value);
        break;
      case FlagId::kQuantum:
        rc.temporal.quantum = parse_u64(argv[0], arg, value, 1);
        break;
      case FlagId::kSeed:
        rc.base_seed = parse_u64(argv[0], arg, value, 0);
        break;
      case FlagId::kWatchdog:
        rc.watchdog_cycles = parse_u64(argv[0], arg, value, 0);
        break;
      case FlagId::kDeadlineMs:
        deadline_ms = parse_positive_double(argv[0], arg, value);
        break;
      case FlagId::kCycleBudget:
        rc.cycle_budget = parse_u64(argv[0], arg, value, 1);
        break;
      case FlagId::kMemBudget:
        rc.mem_budget = parse_u64(argv[0], arg, value, 1);
        break;
      case FlagId::kSweep:
        sweep_which = value;
        break;
      case FlagId::kCheckpoint:
        sweep_opts.checkpoint_path = value;
        break;
      case FlagId::kOut:
        out_path = value;
        have_out = true;
        break;
      case FlagId::kRetries:
        sweep_opts.max_attempts =
            static_cast<int>(parse_u64(argv[0], arg, value, 1));
        break;
      case FlagId::kBackoffMs:
        sweep_opts.backoff_ms =
            static_cast<int>(parse_u64(argv[0], arg, value, 0));
        have_backoff = true;
        break;
      case FlagId::kFailFast:
        sweep_opts.fail_fast = true;
        break;
      case FlagId::kJobs:
        sweep_opts.jobs = static_cast<int>(parse_u64(argv[0], arg, value, 1));
        break;
      case FlagId::kSnapshotEvery:
        rc.snapshot_every = parse_u64(argv[0], arg, value, 1);
        break;
      case FlagId::kSnapshotDir:
        rc.snapshot_dir = value;
        have_snapshot_dir = true;
        break;
      case FlagId::kRestore:
        rc.restore_path = value;
        break;
      case FlagId::kAuditDeterminism:
        audit_determinism = true;
        break;
      case FlagId::kHashEvery:
        hash_every = parse_u64(argv[0], arg, value, 1);
        have_hash_every = true;
        break;
      case FlagId::kNoActivitySched:
        rc.activity_sched = false;
        break;
      case FlagId::kGovernor:
        rc.governor = true;
        break;
      case FlagId::kNoGovernor:
        rc.governor = false;
        break;
      case FlagId::kProfileLoop:
        profile_loop = true;
        break;
      case FlagId::kChaos:
        chaos_schedules = static_cast<int>(parse_u64(argv[0], arg, value, 1));
        break;
      case FlagId::kChaosSeed:
        chaos_seed = parse_u64(argv[0], arg, value, 0);
        break;
      case FlagId::kNoMinimize:
        chaos_minimize = false;
        break;
      case FlagId::kNoRecovery:
        chaos_recovery = false;
        break;
      case FlagId::kFaultSchedule:
        fault_spec = value;
        break;
      case FlagId::kJobFile:
        job_file = value;
        break;
      case FlagId::kJobsResume:
        jobs_resume = value;
        break;
      case FlagId::kManifest:
        manifest_path = value;
        break;
      case FlagId::kMaxRetries:
        job_max_retries = static_cast<int>(parse_u64(argv[0], arg, value, 0));
        break;
      case FlagId::kQuarantineAfter:
        quarantine_after =
            static_cast<int>(parse_u64(argv[0], arg, value, 1));
        break;
      case FlagId::kAlone:
        if (value == "replay") {
          rc.alone_mode = RunConfig::AloneMode::kExactReplay;
        } else if (value == "cached") {
          rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
        } else {
          usage(argv[0], "unknown alone mode: " + value);
        }
        break;
      case FlagId::kConfig:
        try {
          rc.gpu = load_config(value, rc.gpu);
        } catch (const std::exception& e) {
          usage(argv[0], e.what());
        }
        break;
      case FlagId::kBundleDir:
        bundle_dir = value;
        have_bundle_dir = true;
        break;
      case FlagId::kNoBundle:
        no_bundle = true;
        break;
      case FlagId::kTriage:
        triage_bundle = value;
        break;
      case FlagId::kTelemetryOut:
        telemetry_out = value;
        break;
      case FlagId::kTraceOut:
        trace_out = value;
        break;
      case FlagId::kMetricsOut:
        metrics_out = value;
        break;
      case FlagId::kDumpConfig:
        write_config(std::cout, GpuConfig{});
        return 0;
      case FlagId::kVersion:
        std::cout << build_fingerprint_line(kSnapshotVersion) << '\n';
        return 0;
      case FlagId::kListApps: {
        TablePrinter table({"abbr", "name", "Table3 BW", "warps/blk",
                            "mem_frac"},
                           14);
        table.print_header();
        for (const KernelProfile& app : app_registry()) {
          table.print_row(app.abbr, app.name.substr(0, 13),
                          TablePrinter::pct(app.table3_bw_util, 0),
                          app.warps_per_block,
                          TablePrinter::num(app.mem_fraction, 3));
        }
        return 0;
      }
      case FlagId::kHelp:
        // An explicit help request is not a usage error: stdout, exit 0.
        std::cout << render_usage(argv[0]);
        return 0;
    }
  }

  const bool jobs_mode = !job_file.empty() || !jobs_resume.empty();
  if (!triage_bundle.empty() &&
      (jobs_mode || !app_names.empty() || !sweep_which.empty() ||
       chaos_schedules > 0 || audit_determinism || !fault_spec.empty() ||
       !rc.restore_path.empty() || rc.snapshot_every != 0)) {
    usage(argv[0],
          "--triage is a standalone postmortem mode; it takes no workload "
          "or batch flags");
  }
  if (no_bundle && have_bundle_dir) {
    usage(argv[0], "--no-bundle and --bundle-dir are mutually exclusive");
  }
  if (have_snapshot_dir && rc.snapshot_every == 0) {
    usage(argv[0], "--snapshot-dir requires --snapshot-every");
  }
  if (have_hash_every && !audit_determinism) {
    usage(argv[0], "--hash-every requires --audit-determinism");
  }
  if (audit_determinism &&
      (!sweep_which.empty() || !rc.restore_path.empty() ||
       rc.snapshot_every != 0)) {
    usage(argv[0],
          "--audit-determinism is incompatible with --sweep, --restore and "
          "--snapshot-every");
  }
  if (!rc.restore_path.empty() && !sweep_which.empty()) {
    usage(argv[0],
          "--restore is for single runs; sweeps auto-resume via "
          "--snapshot-every and --checkpoint");
  }
  if (chaos_schedules > 0 &&
      (!sweep_which.empty() || !app_names.empty() || audit_determinism ||
       !rc.restore_path.empty() || rc.snapshot_every != 0)) {
    usage(argv[0],
          "--chaos is incompatible with --apps, --sweep, --restore, "
          "--snapshot-every and --audit-determinism");
  }
  if (!fault_spec.empty() && !sweep_which.empty()) {
    usage(argv[0], "--fault-schedule does not apply to sweeps");
  }
  if (!fault_spec.empty() && chaos_schedules > 0) {
    usage(argv[0],
          "--fault-schedule replays one schedule; --chaos generates its own");
  }
  if (!job_file.empty() && !jobs_resume.empty()) {
    usage(argv[0], "--job-file starts a batch; --jobs-resume continues one — "
                   "pick one");
  }
  if (jobs_mode &&
      (!app_names.empty() || !sweep_which.empty() || chaos_schedules > 0 ||
       audit_determinism || !fault_spec.empty() || !rc.restore_path.empty())) {
    usage(argv[0],
          "--job-file/--jobs-resume run whole batches and are incompatible "
          "with --apps, --sweep, --chaos, --fault-schedule, --restore and "
          "--audit-determinism");
  }
  if (!manifest_path.empty() && job_file.empty()) {
    usage(argv[0], "--manifest requires --job-file");
  }
  if (profile_loop &&
      (jobs_mode || chaos_schedules > 0 || !sweep_which.empty() ||
       audit_determinism || !fault_spec.empty())) {
    usage(argv[0],
          "--profile-loop applies to plain single runs (use the bench "
          "binary for profiled batch scenarios)");
  }
  // Telemetry flag shapes: --telemetry-out is a file for single runs and a
  // directory for batch modes; the trace and metrics exports are
  // single-output files, so batch modes reject them (their per-unit traces
  // come from the --telemetry-out directory instead).
  const bool batch_mode =
      jobs_mode || chaos_schedules > 0 || !sweep_which.empty();
  const bool replay_mode = !fault_spec.empty() && !audit_determinism;
  if (!trace_out.empty() && (batch_mode || replay_mode)) {
    usage(argv[0],
          "--trace-out applies to single --apps runs and --triage; batch "
          "modes and --fault-schedule replays take --telemetry-out DIR and "
          "write per-unit trace files there");
  }
  if (!metrics_out.empty() &&
      (batch_mode || replay_mode || !triage_bundle.empty())) {
    usage(argv[0], "--metrics-out applies to single --apps runs only");
  }
  if (!triage_bundle.empty() && !telemetry_out.empty()) {
    usage(argv[0],
          "--triage replays a bundle's recorded telemetry; it only exports "
          "a trace (--trace-out)");
  }

  // Crash forensics: runs, sweeps, --fault-schedule replays and job
  // batches bundle any terminal SimError under bundle_dir by default
  // (--no-bundle opts out).  Chaos campaigns *expect* failures, so they
  // bundle only when --bundle-dir was given explicitly.
  if (!no_bundle) rc.crash_bundle_dir = bundle_dir;

  // Wire the drain flag and the run limits into every mode.
  rc.cancel = shutdown_flag();
  sweep_opts.cancel = shutdown_flag();
  if (deadline_ms > 0.0 && !jobs_mode) {
    rc.wall_deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(
                           static_cast<long long>(deadline_ms * 1000.0));
  }

  try {
    if (!triage_bundle.empty()) {
      return run_triage(triage_bundle, std::cout, trace_out);
    }
    if (jobs_mode) {
      JobManagerOptions jm;
      jm.gpu = rc.gpu;
      jm.base_seed = rc.base_seed;
      jm.default_cycles = have_cycles ? rc.co_run_cycles : 40'000;
      jm.default_deadline_ms = deadline_ms;
      jm.max_retries = job_max_retries;
      if (have_backoff) jm.backoff_base_ms = sweep_opts.backoff_ms;
      jm.quarantine_after = quarantine_after;
      jm.jobs = sweep_opts.jobs;
      jm.manifest_path = !jobs_resume.empty()
                             ? jobs_resume
                             : (!manifest_path.empty()
                                    ? manifest_path
                                    : job_file + ".manifest.jsonl");
      if (have_snapshot_dir) jm.snapshot_dir = rc.snapshot_dir;
      if (rc.snapshot_every != 0) jm.snapshot_every = rc.snapshot_every;
      jm.cancel = shutdown_flag();
      jm.verbose = true;
      jm.crash_bundle_dir = rc.crash_bundle_dir;
      jm.telemetry_dir = telemetry_out;
      return run_jobs(jm, job_file,
                      have_out ? out_path : "jobs_report.json");
    }
    if (chaos_schedules > 0) {
      if (!have_cycles) rc.co_run_cycles = 40'000;  // chaos default budget
      return run_chaos(rc, chaos_schedules, chaos_seed, sweep_opts.jobs,
                       chaos_recovery, chaos_minimize,
                       sweep_opts.checkpoint_path,
                       have_bundle_dir && !no_bundle ? bundle_dir
                                                     : std::string(),
                       telemetry_out,
                       have_out ? out_path : "chaos_report.json");
    }
    if (!sweep_which.empty()) {
      if (!app_names.empty()) {
        usage(argv[0], "--sweep and --apps are mutually exclusive");
      }
      // Sweeps use the cached alone IPC like the bench binaries do.
      rc.alone_mode = RunConfig::AloneMode::kCachedIpc;
      rc.crash_bundle_mode = "sweep";
      rc.telemetry.dir = telemetry_out;  // per-pair files under the directory
      return run_sweep(sweep_which, rc, models, sweep_opts, out_path,
                       argv[0]);
    }

    if (app_names.empty()) usage(argv[0], "--apps is required");
    if (static_cast<int>(app_names.size()) > kMaxApps) {
      usage(argv[0], "too many applications");
    }
    Workload workload;
    for (const std::string& name : app_names) {
      const auto app = find_app(name);
      if (!app) usage(argv[0], "unknown application: " + name);
      workload.apps.push_back(*app);
    }
    if (have_split) {
      if (split.size() != workload.apps.size()) {
        usage(argv[0], "--split must list one SM count per app");
      }
      const int total = std::accumulate(split.begin(), split.end(), 0);
      if (total != rc.gpu.num_sms) {
        usage(argv[0], "--split SM counts must sum to num_sms (" +
                           std::to_string(rc.gpu.num_sms) + "), got " +
                           std::to_string(total));
      }
    }

    if (audit_determinism) {
      if (!fault_spec.empty()) rc.faults = FaultSchedule::parse(fault_spec);
      return run_audit(rc, workload, models, policy,
                       have_split ? &split : nullptr, hash_every);
    }
    if (!fault_spec.empty()) {
      return run_replay(rc, workload, policy, fault_spec, chaos_recovery,
                        telemetry_out, argv[0]);
    }

    LoopProfiler profiler;
    if (profile_loop) rc.profiler = &profiler;
    rc.telemetry.series = telemetry_out;
    rc.telemetry.trace = trace_out;
    rc.telemetry.metrics = metrics_out;
    ExperimentRunner runner(rc);
    const CoRunResult result = runner.run(workload, models, policy,
                                          have_split ? &split : nullptr);
    print_result(result, models);
    if (profile_loop) {
      std::cout << "{\n\"schema\": \"gpusim-loop-profile-v1\",\n"
                << profiler.to_json_lines(/*trailing_comma=*/true)
                << "\"profile_total_ns\": " << profiler.total_ns() << "\n}\n";
    }
    return 0;
  } catch (const SimError& e) {
    std::cerr << "simulation error [" << to_string(e.kind()) << "] in "
              << e.component() << ":\n" << e.what() << '\n';
    if (e.kind() == SimErrorKind::kInterrupted && rc.snapshot_every != 0) {
      std::cerr << "gpusim: run interrupted — a snapshot was written; rerun "
                   "the same command to resume\n";
    }
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
