#include "harness/cli_flags.hpp"

#include <sstream>

namespace gpusim {

const std::vector<FlagInfo>& flag_table() {
  static const std::vector<FlagInfo> table = {
      {FlagId::kApps, "--apps", "LIST",
       "comma-separated Table III abbreviations"},
      {FlagId::kCycles, "--cycles", "N",
       "co-run length in cycles (default 300000)"},
      {FlagId::kPolicy, "--policy", "P",
       "even | dase-fair | leftover | temporal | qos"},
      {FlagId::kSplit, "--split", "N1,N2,..",
       "static SM counts per app (overrides policy partitioning)"},
      {FlagId::kModels, "--models", "LIST",
       "estimators to attach: dase,mise,asm (default dase)"},
      {FlagId::kQosTarget, "--qos-target", "X",
       "slowdown target for --policy qos (default 2.0)"},
      {FlagId::kQuantum, "--quantum", "N",
       "temporal-multitasking quantum (default 100000)"},
      {FlagId::kSeed, "--seed", "N", "workload seed (default 42)"},
      {FlagId::kConfig, "--config", "FILE",
       "load a GpuConfig key=value file"},
      {FlagId::kWatchdog, "--watchdog", "N",
       "deadlock watchdog threshold in cycles (0 disables; default 1000000)"},
      {FlagId::kDeadlineMs, "--deadline-ms", "N",
       "wall-clock deadline in ms, shared by a whole --apps run, sweep,\n"
       "chaos campaign or --fault-schedule replay (default none;\n"
       "lapsing it exits 7; rejected by --triage)"},
      {FlagId::kCycleBudget, "--cycle-budget", "N",
       "hard cycle cap per co-run of an --apps run or sweep (default\n"
       "none; exceeding it exits 8; rejected by --chaos,\n"
       "--fault-schedule and --triage)"},
      {FlagId::kMemBudget, "--mem-budget", "N",
       "hard DRAM requests-served cap per co-run, same modes as\n"
       "--cycle-budget (default none; exceeding it exits 8)"},
      {FlagId::kSweep, "--sweep", "WHICH",
       "run a crash-safe two-app sweep: 'all' (105 pairs) or 'random:N'"},
      {FlagId::kCheckpoint, "--checkpoint", "F",
       "sweep/chaos JSONL checkpoint (resume from it if present)"},
      {FlagId::kOut, "--out", "F",
       "final results JSON (default sweep_results.json /\n"
       "chaos_report.json)"},
      {FlagId::kRetries, "--retries", "N",
       "sweep attempts per pair; deterministic errors (config,\n"
       "invariant, conservation, budget) run once (default 3)"},
      {FlagId::kBackoffMs, "--backoff-ms", "N",
       "exponential retry backoff base in ms for sweep pairs: retry r\n"
       "waits N << (r-1) plus a deterministic jitter (default 0)"},
      {FlagId::kFailFast, "--fail-fast", nullptr,
       "abort the sweep on the first failed pair"},
      {FlagId::kJobs, "--jobs", "N",
       "worker threads for sweeps and chaos campaigns (default: one\n"
       "per hardware thread; 1 = serial; results are byte-identical\n"
       "for any N)"},
      {FlagId::kSnapshotEvery, "--snapshot-every", "N",
       "write a SimState snapshot every N cycles (auto-resumes from it\n"
       "after a crash; works for --apps and --sweep runs)"},
      {FlagId::kSnapshotDir, "--snapshot-dir", "D",
       "directory for snapshot files (default '.'; requires\n"
       "--snapshot-every)"},
      {FlagId::kAuditDeterminism, "--audit-determinism", nullptr,
       "run the workload twice (activity engine vs per-cycle walk, with\n"
       "the --models, --policy and --split of a plain run), compare state\n"
       "hashes every --hash-every cycles; exit 4 and dump the diverging\n"
       "components on mismatch (combine with --fault-schedule to audit\n"
       "under faults)"},
      {FlagId::kHashEvery, "--hash-every", "N",
       "audit sampling period in cycles (default 10000)"},
      {FlagId::kGovernor, "--governor", nullptr,
       "enable the policy safety governor (the default; last one of\n"
       "--governor/--no-governor wins)"},
      {FlagId::kNoGovernor, "--no-governor", nullptr,
       "disable the policy safety governor: partition proposals reach\n"
       "the GPU unguarded, exactly the pre-governor behavior (healthy\n"
       "runs are byte-identical either way)"},
      {FlagId::kProfileLoop, "--profile-loop", nullptr,
       "attribute wall time and visit counts to the cycle-loop phases\n"
       "(SM advance, response delivery, crossbars, partitions, interval\n"
       "bookkeeping); prints a JSON breakdown"},
      {FlagId::kChaos, "--chaos", "N",
       "run a chaos campaign of N random fault schedules across\n"
       "workload x policy jobs; classify every outcome, minimize\n"
       "failures, write the report to --out"},
      {FlagId::kChaosSeed, "--chaos-seed", "N",
       "campaign master seed (default 1; identical seeds give\n"
       "byte-identical reports for any --jobs)"},
      {FlagId::kNoMinimize, "--no-minimize", nullptr,
       "skip delta-debugging failing chaos schedules"},
      {FlagId::kNoRecovery, "--no-recovery", nullptr,
       "disable the modeled MSHR timeout/retry recovery path in chaos\n"
       "and --fault-schedule runs"},
      {FlagId::kFaultSchedule, "--fault-schedule", "S",
       "with --apps: run once under the fault schedule spec S and print\n"
       "the chaos outcome classification (replays a campaign reproducer\n"
       "exactly)"},
      {FlagId::kBundleDir, "--bundle-dir", "D",
       "root directory for crash-forensics bundles (default\n"
       "'crash-bundles'; also arms bundling for --chaos campaigns,\n"
       "where it is otherwise off)"},
      {FlagId::kNoBundle, "--no-bundle", nullptr,
       "disable crash-bundle emission entirely"},
      {FlagId::kTriage, "--triage", "BUNDLE",
       "postmortem mode: restore the crash bundle's snapshot, replay to\n"
       "the recorded failure cycle, verify the state hash bit-exactly and\n"
       "print the flight-recorder timeline (exit 0 verified, 4 diverged,\n"
       "3 bundle unusable)"},
      {FlagId::kTelemetryOut, "--telemetry-out", "F|D",
       "per-interval time-series JSONL: a file for --apps runs, a\n"
       "directory (per-label files) for --sweep, --chaos and\n"
       "--fault-schedule; every record carries estimated vs actual\n"
       "slowdowns, the Eq. 26 error, partition sizes and memory-system\n"
       "rates"},
      {FlagId::kTraceOut, "--trace-out", "F",
       "Chrome trace-event JSON (load in Perfetto / chrome://tracing):\n"
       "epoch spans per app, migration drain spans, governor and fault\n"
       "instants, counter tracks (--apps and --triage runs only)"},
      {FlagId::kMetricsOut, "--metrics-out", "F",
       "Prometheus-style text metrics snapshot at run end (--apps runs\n"
       "only)"},
      {FlagId::kDumpConfig, "--dump-config", nullptr,
       "print the default config file and exit"},
      {FlagId::kListApps, "--list-apps", nullptr,
       "print the application registry and exit"},
      {FlagId::kVersion, "--version", nullptr,
       "print the build fingerprint (version, schemas, toolchain,\n"
       "feature flags) and exit"},
      {FlagId::kHelp, "--help", nullptr, "show this help (also -h)"},
  };
  return table;
}

const FlagInfo* find_flag(const std::string& arg) {
  const std::string name = arg == "-h" ? "--help" : arg;
  for (const FlagInfo& flag : flag_table()) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

const std::vector<ExitCodeInfo>& exit_code_table() {
  static const std::vector<ExitCodeInfo> table = {
      {0, "success"},
      {1, "failed sweep pairs"},
      {2, "usage error"},
      {3, "simulation error (SimError) / --triage bundle unusable"},
      {4, "determinism audit or --triage replay found a divergence"},
      {5, "a checkpoint had torn lines (skipped and re-run; results "
          "complete, but a prior run crashed mid-write)"},
      {6, "interrupted by SIGINT/SIGTERM — drained gracefully; checkpoints "
          "and snapshots are resumable"},
      {7, "wall-clock deadline exceeded"},
      {8, "cycle or memory budget exceeded"},
  };
  return table;
}

int exit_code_for(SimErrorKind kind) {
  switch (kind) {
    case SimErrorKind::kInterrupted: return 6;
    case SimErrorKind::kDeadlineExceeded: return 7;
    case SimErrorKind::kBudgetExceeded: return 8;
    default: return 3;
  }
}

std::string render_usage(const char* argv0) {
  std::ostringstream ss;
  ss << "usage: " << argv0 << " --apps A,B[,C,D] [options]\n"
     << "       " << argv0 << " --sweep all|random:N [options]\n"
     << "       " << argv0 << " --chaos N [options]\n"
     << "       " << argv0 << " --triage BUNDLE\n"
     << "\n";
  constexpr int kColumn = 22;
  for (const FlagInfo& flag : flag_table()) {
    std::string head = std::string("  ") + flag.name;
    if (flag.value_name != nullptr) {
      head += ' ';
      head += flag.value_name;
    }
    if (static_cast<int>(head.size()) < kColumn) {
      head.append(static_cast<std::size_t>(kColumn - head.size()), ' ');
    } else {
      head += ' ';
    }
    ss << head;
    for (const char* c = flag.help; *c != '\0'; ++c) {
      ss << *c;
      if (*c == '\n') ss << std::string(kColumn, ' ');
    }
    ss << '\n';
  }
  ss << "\nexit codes:\n";
  for (const ExitCodeInfo& info : exit_code_table()) {
    ss << "  " << info.code << "  " << info.meaning << '\n';
  }
  return ss.str();
}

}  // namespace gpusim
