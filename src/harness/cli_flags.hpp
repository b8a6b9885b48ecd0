// gpusim_cli flag table — the single source of truth for the CLI surface.
//
// The parser, the --help text and the docs used to each spell the flag list
// out by hand, and they drifted (a flag would parse but not show in help,
// or the help would promise a default the parser didn't implement).  Now
// there is exactly one table: the parser looks every argv token up with
// find_flag() and switches on the FlagId, and render_usage() generates the
// help from the same rows — a flag literally cannot be accepted without
// appearing in --help (tests/harness/cli_flags_test asserts it anyway).
//
// The exit-code table lives here too, for the same reason: gpusim_cli's
// exit codes are a scripting contract (the tools/check_*.sh gates and CI
// assert them), so the mapping from SimErrorKind to exit code and the
// table printed by --help must be one thing.
#pragma once

#include <string>
#include <vector>

#include "common/sim_error.hpp"

namespace gpusim {

enum class FlagId {
  kApps,
  kCycles,
  kPolicy,
  kSplit,
  kModels,
  kQosTarget,
  kQuantum,
  kSeed,
  kConfig,
  kWatchdog,
  kSweep,
  kCheckpoint,
  kOut,
  kFailFast,
  kJobs,
  kSnapshotEvery,
  kSnapshotDir,
  kAuditDeterminism,
  kHashEvery,
  kProfileLoop,
  kFaultSchedule,
  kTelemetryOut,
  kTraceOut,
  kDumpConfig,
  kListApps,
  kVersion,
  kHelp,
};

struct FlagInfo {
  FlagId id;
  const char* name;        ///< "--apps"
  const char* value_name;  ///< "LIST", or nullptr for boolean flags
  const char* help;        ///< one-line description ('\n' wraps, indented)
  /// Shapes one --apps co-run only.  Every --sweep pair is a plain
  /// even-split co-run, so a sweep rejects the flag as a usage error
  /// instead of silently ignoring it.
  bool run_only = false;
};

/// Every flag gpusim_cli accepts, in help-display order.
const std::vector<FlagInfo>& flag_table();

/// Looks an argv token up in the table ("-h" aliases "--help").  Returns
/// nullptr for unknown flags.
const FlagInfo* find_flag(const std::string& arg);

/// The full --help text: usage lines, the flag table and the exit-code
/// table, all generated from the tables in this header.
std::string render_usage(const char* argv0);

struct ExitCodeInfo {
  int code;
  const char* meaning;
};

/// gpusim_cli's exit-code contract, in numeric order.
const std::vector<ExitCodeInfo>& exit_code_table();

/// Maps a SimError kind to its documented exit code (6 interrupted,
/// 8 budget; everything else is 3).  7 is unassigned: it meant a lapsed
/// wall-clock deadline, a limit the CLI no longer has.
int exit_code_for(SimErrorKind kind);

/// Prints `e` to stderr the way gpusim_cli reports a failed run (kind,
/// component, message and details) and returns exit_code_for its kind.
/// The figure binaries end on it too.
int report_sim_error(const SimError& e);

}  // namespace gpusim
