#include "harness/cli_flags.hpp"

#include <iostream>
#include <sstream>

namespace gpusim {

const std::vector<FlagInfo>& flag_table() {
  static const std::vector<FlagInfo> table = {
      {FlagId::kApps, "--apps", "LIST",
       "comma-separated Table III abbreviations"},
      {FlagId::kCycles, "--cycles", "N",
       "co-run length in cycles (default 300000)"},
      {FlagId::kPolicy, "--policy", "P", "even | dase-fair", true},
      {FlagId::kSplit, "--split", "N1,N2,..",
       "initial SM counts per app, summing to num_sms (dase-fair\n"
       "repartitions from it); a 0 starves its app, so 16,0 is\n"
       "LEFTOVER's allocation of two full-GPU grids",
       true},
      {FlagId::kModels, "--models", "LIST",
       "estimators to attach: dase,mise,asm (default dase)"},
      {FlagId::kSeed, "--seed", "N", "workload seed (default 42)"},
      {FlagId::kConfig, "--config", "FILE",
       "load a GpuConfig key=value file"},
      {FlagId::kWatchdog, "--watchdog", "N",
       "deadlock watchdog threshold in cycles (0 disables; default\n"
       "1000000); an SM drain still pending this long after its\n"
       "repartition request also fails the run (migration-stalled)"},
      {FlagId::kSweep, "--sweep", "WHICH",
       "run a crash-safe two-app sweep: 'all' (105 pairs) or 'random:N';\n"
       "every pair runs under the even split, so --policy, --split\n"
       "and --fault-schedule are rejected"},
      {FlagId::kCheckpoint, "--checkpoint", "F",
       "sweep JSONL checkpoint (resume from it if present)"},
      {FlagId::kOut, "--out", "F",
       "final sweep results JSON (default sweep_results.json)"},
      {FlagId::kFailFast, "--fail-fast", nullptr,
       "abort the sweep on the first failed pair"},
      {FlagId::kJobs, "--jobs", "N",
       "worker threads for sweeps (default: one per hardware thread;\n"
       "1 = serial; results are byte-identical for any N)"},
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
      {FlagId::kProfileLoop, "--profile-loop", nullptr,
       "attribute wall time and visit counts to the cycle-loop phases\n"
       "(SM advance, response delivery, crossbars, partitions, interval\n"
       "bookkeeping); prints a JSON breakdown"},
      {FlagId::kFaultSchedule, "--fault-schedule", "S",
       "with --apps: inject the fault schedule spec S (drop-resp,\n"
       "drop-req, stall) into the co-run; the run is audited as usual,\n"
       "so a dropped packet exits 3 with a conservation error",
       true},
      {FlagId::kTelemetryOut, "--telemetry-out", "F|D",
       "per-interval time-series JSONL: a file for --apps runs, a\n"
       "directory (per-label files) for --sweep; every record carries\n"
       "estimated vs actual slowdowns, the Eq. 26 error, partition\n"
       "sizes and memory-system rates"},
      {FlagId::kTraceOut, "--trace-out", "F",
       "Chrome trace-event JSON (load in Perfetto / chrome://tracing):\n"
       "epoch spans per app, migration drain spans, fault instants,\n"
       "counter tracks (--apps runs only)"},
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
      {3, "simulation error (SimError)"},
      {4, "determinism audit found a divergence"},
      {5, "a checkpoint had torn lines (skipped and re-run; results "
          "complete, but a prior run crashed mid-write)"},
      {6, "interrupted by SIGINT/SIGTERM — drained gracefully; checkpoints "
          "and snapshots are resumable"},
      {8, "an alone replay hit max_alone_cycles"},
  };
  return table;
}

int exit_code_for(SimErrorKind kind) {
  switch (kind) {
    case SimErrorKind::kInterrupted: return 6;
    case SimErrorKind::kBudgetExceeded: return 8;
    default: return 3;
  }
}

int report_sim_error(const SimError& e) {
  std::cerr << "simulation error [" << to_string(e.kind()) << "] in "
            << e.component() << ":\n" << e.what() << '\n';
  return exit_code_for(e.kind());
}

std::string render_usage(const char* argv0) {
  std::ostringstream ss;
  ss << "usage: " << argv0 << " --apps A,B[,C,D] [options]\n"
     << "       " << argv0 << " --sweep all|random:N [options]\n"
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
