// Crash-forensics bundles: when a co-run dies on a terminal SimError, the
// harness emits one self-contained directory holding everything a later
// `gpusim_cli --triage <dir>` session needs to reproduce and explain the
// failure offline:
//
//   manifest.json       one key per line: schema, build fingerprint, the
//                       full harness context (apps, seed, policy, models,
//                       faults, SM split), the failure cycle + state hash,
//                       the error, and the replay command
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

#include "common/config.hpp"
#include "common/sim_error.hpp"
#include "common/types.hpp"

namespace gpusim {

class Simulation;

/// Everything --triage needs to reassemble the failed experiment exactly:
/// the co-run workload and harness knobs plus the snapshot fingerprint the
/// bundled state was written under.
struct TriageContext {
  std::string mode = "run";  ///< "run" / "sweep" / "chaos"
  std::string label;         ///< workload label, e.g. "SD+SA"
  std::vector<std::string> apps;  ///< registry abbreviations, slot order
  u64 base_seed = 0;
  Cycle co_run_cycles = 0;
  std::string policy = "even";  ///< to_string(PolicyKind)
  bool dase = true;
  bool mise = false;
  bool asm_model = false;
  std::string faults;  ///< FaultSchedule::to_string(), "" when none armed
  Cycle watchdog_cycles = 0;
  bool governor = true;  ///< policy safety governor enabled (--no-governor)
  std::vector<int> sm_split;  ///< empty = policy-controlled partition
  u64 fingerprint = 0;        ///< simulation_fingerprint(sim, harness ctx)
};

/// Parsed manifest.json.  Field-for-field what write_crash_bundle records.
struct CrashBundleManifest {
  std::string schema;
  u64 build = 0;           ///< writer's build_fingerprint()
  std::string build_line;  ///< human-readable writer version line
  TriageContext ctx;
  Cycle failure_cycle = 0;
  u64 failure_state_hash = 0;
  std::string error_kind;
  std::string error_component;
  std::string error_message;
  std::string snapshot_file;  ///< "snapshot.simstate"
  std::string anchor_file;    ///< "anchor.simstate" or "" when absent
  std::string replay;         ///< suggested triage command line
};

/// Emits one crash bundle under `bundle_root` (created if missing) and
/// returns the published directory path.  Best-effort by design: any
/// failure (unwritable disk, snapshot serialization error) is reported on
/// stderr and an empty string is returned — the original SimError must
/// keep propagating unmasked.  `anchor_snapshot_path`, when non-empty,
/// names an existing periodic snapshot file to copy in as the re-execution
/// anchor.
std::string write_crash_bundle(const std::string& bundle_root,
                               const Simulation& sim, const GpuConfig& cfg,
                               const SimError& err, const TriageContext& ctx,
                               const std::string& anchor_snapshot_path =
                                   std::string()) noexcept;

/// Reads and validates `<bundle_dir>/manifest.json`.  Tolerant of unknown
/// keys (forward compatibility) but every malformation — missing manifest,
/// wrong schema, absent required key, unparsable number, missing snapshot
/// file — raises SimError(kSnapshot); corrupt bundles never crash a triage
/// session.
CrashBundleManifest read_crash_bundle_manifest(const std::string& bundle_dir);

}  // namespace gpusim
