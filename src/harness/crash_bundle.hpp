// Crash-forensics bundles: when a co-run dies on a terminal SimError, the
// harness emits one self-contained directory holding everything a later
// `gpusim_cli --triage <dir>` session needs to reproduce and explain the
// failure offline:
//
//   manifest.json       one key per line: schema, build fingerprint, the
//                       co-run identity (harness/runner.hpp's
//                       corun_identity), the watchdog setting, the
//                       snapshot fingerprint, the failure cycle + state
//                       hash, the error, and the replay command
//   snapshot.simstate   the simulation at the failure point (gpu/snapshot
//                       format, flight-recorder ring included)
//   anchor.simstate     nearest earlier periodic snapshot, when one exists
//                       (lets triage *re-execute* up to the failure)
//   config.txt          the effective GpuConfig (config_io round-trip)
//   events.txt          human-readable flight-recorder timeline + the
//                       pipeline-state dump + the error text
//
// Bundles are published atomically: everything is written into a sibling
// ".tmp-<name>" directory which is renamed into place only after the
// manifest — the completeness marker — is on disk.  A crash or SIGTERM
// mid-emission leaves only a ".tmp-" directory, which every loader
// ignores.  write_crash_bundle never throws: forensics must not mask the
// original error.
#pragma once

#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "common/types.hpp"
#include "harness/runner.hpp"

namespace gpusim {

class Simulation;

/// Parsed manifest.json.  Field-for-field what write_crash_bundle records.
struct CrashBundleManifest {
  std::string schema;
  u64 build = 0;           ///< writer's build_fingerprint()
  std::string build_line;  ///< human-readable writer version line
  /// The failed co-run: parse_corun_identity over the manifest, plus the
  /// recorded caller configuration (rc.crash_bundle_mode,
  /// rc.watchdog_cycles).  rc.gpu stays default: the bundle's config.txt
  /// holds the effective GpuConfig.
  CoRunSpec corun;
  u64 fingerprint = 0;  ///< corun_fingerprint the bundled state was saved under
  Cycle failure_cycle = 0;
  u64 failure_state_hash = 0;
  std::string error_kind;
  std::string error_component;
  std::string error_message;
  std::string snapshot_file;  ///< "snapshot.simstate"
  std::string anchor_file;    ///< "anchor.simstate" or "" when absent
  std::string replay;         ///< suggested triage command line
};

/// A workload label as a file-name stem: every character other than an
/// alphanumeric or one of "-_.+" becomes '_' ("unnamed" when empty).
/// Snapshot files and crash-bundle directories are both named by it.
std::string label_file_stem(const std::string& label);

/// Emits one crash bundle for `sim`, the co-run assemble_corun built from
/// these inputs, under rc.crash_bundle_dir (created if missing) and returns
/// the published directory path.  The manifest records the co-run's
/// corun_identity and corun_fingerprint; rc also supplies the GpuConfig,
/// the mode tag and the watchdog setting.  Best-effort by design: any
/// failure (unwritable disk, snapshot serialization error) is reported on
/// stderr and an empty string is returned — the original SimError must
/// keep propagating unmasked.  `anchor_snapshot_path`, when
/// it names an existing periodic snapshot file, is copied in as the
/// re-execution anchor.
std::string write_crash_bundle(const RunConfig& rc, const Workload& workload,
                               const ModelSet& models, PolicyKind policy,
                               const std::vector<int>* sm_split,
                               const Simulation& sim, const SimError& err,
                               const std::string& anchor_snapshot_path) noexcept;

/// Reads and validates `<bundle_dir>/manifest.json`.  Tolerant of unknown
/// keys (forward compatibility) but every malformation — missing manifest,
/// wrong schema, absent required key, unparsable number, missing snapshot
/// file — raises a typed SimError (kSnapshot; kConfig for an unknown policy
/// or model name); corrupt bundles never crash a triage session.
CrashBundleManifest read_crash_bundle_manifest(const std::string& bundle_dir);

}  // namespace gpusim
