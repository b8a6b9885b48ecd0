// gpusim_cli — run arbitrary multiprogrammed workloads from the command
// line: pick applications, SM policy, estimation models and run length,
// and get the per-application slowdown report.
//
//   gpusim_cli --apps SD,SA
//   gpusim_cli --apps VA,CT,SD,SN --policy dase-fair --cycles 1000000
//   gpusim_cli --apps NN,SD --split 16,0 --cycles 1000000
//   gpusim_cli --apps SB,VA --split 4,12 --models dase,mise,asm
//   gpusim_cli --sweep all --checkpoint sweep.jsonl --out sweep.json
//   gpusim_cli --apps SD,SA --snapshot-every 50000 --snapshot-dir snaps
//   gpusim_cli --apps SD,SA --audit-determinism
//   gpusim_cli --apps SD,SA --cycles 60000 --fault-schedule 'drop-resp:nth=200'
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
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "common/config_io.hpp"
#include "common/fault_injection.hpp"
#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/cli_flags.hpp"
#include "harness/divergence.hpp"
#include "harness/runner.hpp"
#include "harness/shutdown.hpp"
#include "harness/sweep.hpp"
#include "harness/table_printer.hpp"
#include "kernels/app_registry.hpp"

namespace {

using namespace gpusim;

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << render_usage(argv0);
  std::exit(2);
}

/// Strict unsigned parse: the whole token must be a decimal number no less
/// than `min_value` and no more than `max_value`.  "0x10", "12abc", "-3"
/// and "" are all rejected with a message naming the flag.
u64 parse_u64(const char* argv0, const std::string& flag,
              const std::string& text, u64 min_value,
              u64 max_value = std::numeric_limits<u64>::max()) {
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
  if (parsed > max_value) {
    usage(argv0, flag + " must be at most " + std::to_string(max_value) +
                     ", got " + text);
  }
  return static_cast<u64>(parsed);
}

/// parse_u64 for a count the program holds as an int (SM counts, pairs,
/// workers): a value above INT_MAX is a usage error, never a wrapped int.
int parse_int_count(const char* argv0, const std::string& flag,
                    const std::string& text, u64 min_value = 1) {
  return static_cast<int>(parse_u64(argv0, flag, text, min_value,
                                    std::numeric_limits<int>::max()));
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
}

int run_sweep(const std::string& which, const RunConfig& rc,
              const ModelSet& models, const SweepOptions& opts,
              const std::string& out_path, const char* argv0) {
  std::vector<Workload> workloads;
  if (which == "all") {
    workloads = all_two_app_workloads();
  } else if (which.rfind("random:", 0) == 0) {
    workloads = random_two_app_workloads(
        parse_int_count(argv0, "--sweep random:N", which.substr(7)),
        rc.base_seed);
  } else {
    usage(argv0, "--sweep expects 'all' or 'random:N', got '" + which + "'");
  }

  // One const runner serves every worker: it holds no mutable state, and
  // each run builds its own simulations.  A pair's key is the fingerprint
  // of the co-run runner.run(w, models) assembles, so the two functions
  // must name the same co-run; a checkpoint line then replays only into
  // the co-run it recorded.
  const ExperimentRunner runner(rc);
  SweepRunner sweep(
      opts,
      [&runner, &models](const Workload& w) {
        return std::to_string(corun_fingerprint(
            runner.config(), w, models, PolicyKind::kEven, nullptr));
      },
      [&runner, &models](const Workload& w) { return runner.run(w, models); });
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
      std::cerr << "failed pair " << e.label << ": " << e.error << '\n';
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

int run_audit(const RunConfig& rc, const Workload& workload,
              const ModelSet& models, PolicyKind policy,
              const std::vector<int>* sm_split, Cycle hash_every) {
  // Both runs are assembled exactly as a plain run is — models, policy,
  // split, telemetry hub and (under --fault-schedule) identical
  // injectors — so every observer's state is part of the compared hashes.
  // Run A is the production configuration (the activity engine); run B is
  // the per-cycle reference walk.  Any state-hash divergence between them
  // is a real bug in the engine.
  const CoRunAssembly a =
      assemble_corun(rc, workload, models, policy, sm_split);
  const CoRunAssembly b =
      assemble_corun(rc, workload, models, policy, sm_split);
  b.sim->set_activity_sched(false);
  const DivergenceReport report =
      audit_divergence(*a.sim, *b.sim, rc.co_run_cycles, hash_every);
  std::cout << "determinism audit (" << workload.label()
            << ", activity engine vs per-cycle walk, " << rc.co_run_cycles
            << " cycles, hash every " << hash_every
            << "): " << report.to_string() << '\n';
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
  bool have_snapshot_dir = false;
  bool audit_determinism = false;
  Cycle hash_every = 10'000;
  bool have_hash_every = false;
  bool profile_loop = false;
  std::string fault_spec;
  std::string telemetry_out;
  std::string trace_out;
  const char* run_only_flag = nullptr;  // the last one seen; --sweep rejects it

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagInfo* flag = find_flag(arg);
    if (flag == nullptr) usage(argv[0], "unknown flag: " + arg);
    if (flag->run_only) run_only_flag = flag->name;
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
        break;
      case FlagId::kPolicy:
        try {
          policy = parse_policy_kind(value);
        } catch (const SimError& e) {
          usage(argv[0], e.message() + ": " + value);
        }
        break;
      case FlagId::kSplit:
        split.clear();
        for (const std::string& n : split_csv(value)) {
          split.push_back(parse_int_count(argv[0], "--split entry", n, 0));
        }
        have_split = true;
        break;
      case FlagId::kModels:
        try {
          models = parse_model_set(value);
        } catch (const SimError& e) {
          usage(argv[0], e.message() + ": " + value);
        }
        break;
      case FlagId::kSeed:
        rc.base_seed = parse_u64(argv[0], arg, value, 0);
        break;
      case FlagId::kWatchdog:
        rc.watchdog_cycles = parse_u64(argv[0], arg, value, 0);
        break;
      case FlagId::kSweep:
        sweep_which = value;
        break;
      case FlagId::kCheckpoint:
        sweep_opts.checkpoint_path = value;
        break;
      case FlagId::kOut:
        out_path = value;
        break;
      case FlagId::kFailFast:
        sweep_opts.fail_fast = true;
        break;
      case FlagId::kJobs:
        sweep_opts.jobs = parse_int_count(argv[0], arg, value);
        break;
      case FlagId::kSnapshotEvery:
        rc.snapshot_every = parse_u64(argv[0], arg, value, 1);
        break;
      case FlagId::kSnapshotDir:
        rc.snapshot_dir = value;
        have_snapshot_dir = true;
        break;
      case FlagId::kAuditDeterminism:
        audit_determinism = true;
        break;
      case FlagId::kHashEvery:
        hash_every = parse_u64(argv[0], arg, value, 1);
        have_hash_every = true;
        break;
      case FlagId::kProfileLoop:
        profile_loop = true;
        break;
      case FlagId::kFaultSchedule:
        fault_spec = value;
        break;
      case FlagId::kConfig:
        try {
          rc.gpu = load_config(value, rc.gpu);
        } catch (const std::exception& e) {
          usage(argv[0], e.what());
        }
        break;
      case FlagId::kTelemetryOut:
        telemetry_out = value;
        break;
      case FlagId::kTraceOut:
        trace_out = value;
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

  if (have_snapshot_dir && rc.snapshot_every == 0) {
    usage(argv[0], "--snapshot-dir requires --snapshot-every");
  }
  if (have_hash_every && !audit_determinism) {
    usage(argv[0], "--hash-every requires --audit-determinism");
  }
  if (audit_determinism && (!sweep_which.empty() || rc.snapshot_every != 0)) {
    usage(argv[0],
          "--audit-determinism is incompatible with --sweep and "
          "--snapshot-every");
  }
  if (run_only_flag != nullptr && !sweep_which.empty()) {
    usage(argv[0], std::string(run_only_flag) +
                       " does not apply to sweeps: every pair runs under "
                       "the even split");
  }
  if (profile_loop && (!sweep_which.empty() || audit_determinism)) {
    usage(argv[0],
          "--profile-loop applies to plain single runs (use the bench "
          "binary for profiled batch scenarios)");
  }
  // Telemetry flag shapes: --telemetry-out is a file for single runs and a
  // directory for sweeps; the trace export is a single-output file, so
  // sweeps reject it (their per-unit traces come from the --telemetry-out
  // directory instead).
  const bool sweep_mode = !sweep_which.empty();
  if (!trace_out.empty() && sweep_mode) {
    usage(argv[0],
          "--trace-out applies to single --apps runs; sweeps take "
          "--telemetry-out DIR and write per-unit trace files there");
  }

  // Wire the drain flag into every mode.
  rc.cancel = shutdown_flag();
  sweep_opts.cancel = shutdown_flag();

  try {
    // A sweep writes per-unit telemetry under a directory; a single run
    // replaces it with the named files below.
    rc.telemetry.dir = telemetry_out;
    if (sweep_mode) {
      if (!app_names.empty()) {
        usage(argv[0], "--sweep and --apps are mutually exclusive");
      }
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
      const u64 total = std::accumulate(split.begin(), split.end(), u64{0});
      if (total != static_cast<u64>(rc.gpu.num_sms)) {
        usage(argv[0], "--split SM counts must sum to num_sms (" +
                           std::to_string(rc.gpu.num_sms) + "), got " +
                           std::to_string(total));
      }
    }

    rc.faults = FaultSchedule::parse(fault_spec);
    if (audit_determinism) {
      return run_audit(rc, workload, models, policy,
                       have_split ? &split : nullptr, hash_every);
    }

    LoopProfiler profiler;
    if (profile_loop) rc.profiler = &profiler;
    rc.telemetry = TelemetryPaths{
        .series = telemetry_out, .trace = trace_out, .dir = {}};
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
    const int code = report_sim_error(e);
    if (e.kind() == SimErrorKind::kInterrupted && rc.snapshot_every != 0) {
      std::cerr << "gpusim: run interrupted — a snapshot was written; rerun "
                   "the same command to resume\n";
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
