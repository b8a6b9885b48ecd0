#include "harness/triage.hpp"

#include <exception>
#include <filesystem>

#include "common/build_info.hpp"
#include "common/config_io.hpp"
#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/crash_bundle.hpp"
#include "harness/runner.hpp"
#include "telemetry/hub.hpp"

namespace gpusim {

namespace {

namespace fs = std::filesystem;

/// The whole flow, throwing typed errors; run_triage wraps it.
int triage_impl(const std::string& bundle_dir, std::ostream& out,
                const std::string& trace_out) {
  CrashBundleManifest m = read_crash_bundle_manifest(bundle_dir);
  CoRunSpec& corun = m.corun;
  const RunConfig& rc = corun.rc;

  out << "triage: " << bundle_dir << "\n";
  out << "  mode " << rc.crash_bundle_mode << ", workload "
      << corun.workload.label() << ", error " << m.error_kind;
  if (!m.error_component.empty()) out << " in " << m.error_component;
  out << " at cycle " << m.failure_cycle << "\n";
  if (!m.error_message.empty()) out << "  message: " << m.error_message
                                    << "\n";
  if (!m.build_line.empty()) out << "  written by: " << m.build_line << "\n";
  out << "  this build: " << build_fingerprint_line(kSnapshotVersion)
      << "\n";
  if (m.build != build_fingerprint()) {
    // Informational on purpose: the config/workload fingerprint below is
    // what actually gates restorability.  A different build can still
    // replay bit-exactly — and proving that it does is useful.
    out << "  note: bundle was written by a different build — a hash "
           "mismatch below may be build drift, not nondeterminism\n";
  }

  try {
    corun.rc.gpu =
        load_config((fs::path(bundle_dir) / "config.txt").string());
  } catch (const std::exception& e) {
    SIM_FAIL(SimError(SimErrorKind::kSnapshot, "harness.triage",
                      "bundle config.txt is missing or malformed")
                 .detail("bundle", bundle_dir)
                 .detail("error", e.what()));
  }

  CoRunAssembly assembly = assemble_corun(rc, corun.workload, corun.models,
                                          corun.policy, corun.split());
  Simulation& sim = *assembly.sim;

  const u64 fingerprint = corun_fingerprint(
      rc, corun.workload, corun.models, corun.policy, corun.split());
  SIM_CHECK(fingerprint == m.fingerprint,
            SimError(SimErrorKind::kSnapshot, "harness.triage",
                     "reassembled experiment fingerprint differs from the "
                     "bundle's — config or registry drift since the crash")
                .detail("bundle", bundle_dir)
                .detail("bundle_fingerprint", m.fingerprint)
                .detail("reassembled_fingerprint", fingerprint));

  const Cycle target = m.failure_cycle;
  bool matched = false;
  std::string reproduced;
  if (!m.anchor_file.empty()) {
    // Re-execute: restore the nearest earlier periodic snapshot and run
    // forward to the recorded failure cycle.  A boundary failure (watchdog,
    // budget, conservation) leaves the state intact exactly at `target`; a
    // mid-cycle guard fires while executing the failure cycle itself, so
    // one extra cycle is attempted when the boundary state does not match.
    const SnapshotHeader hdr = restore_snapshot_file(
        (fs::path(bundle_dir) / m.anchor_file).string(), sim, fingerprint);
    SIM_CHECK(hdr.cycle <= target,
              SimError(SimErrorKind::kSnapshot, "harness.triage",
                       "bundle anchor snapshot is later than the recorded "
                       "failure cycle")
                  .detail("anchor_cycle", hdr.cycle)
                  .detail("failure_cycle", target));
    out << "  anchor restored at cycle " << hdr.cycle << "; re-executing "
        << (target - hdr.cycle) << " cycle(s) to the failure point\n";
    try {
      if (sim.gpu().now() < target) sim.run(target - sim.gpu().now());
      matched = sim.state_hash() == m.failure_state_hash;
      if (!matched) {
        sim.run(1);
        matched = sim.state_hash() == m.failure_state_hash;
      }
    } catch (const SimError& e) {
      reproduced = std::string(to_string(e.kind())) + " in " +
                   e.component() + ": " + e.message();
      matched = sim.state_hash() == m.failure_state_hash;
    }
  } else {
    // No anchor (the failure predated the first periodic snapshot, or
    // snapshotting was off): restoring the failure-point snapshot is
    // itself the verification — restore_snapshot_file recomputes the
    // state hash against the one stored at save time.
    const SnapshotHeader hdr = restore_snapshot_file(
        (fs::path(bundle_dir) / m.snapshot_file).string(), sim,
        fingerprint);
    out << "  no anchor snapshot: restored the failure-point state "
           "directly (cycle "
        << hdr.cycle << ")\n";
    matched = sim.state_hash() == m.failure_state_hash &&
              hdr.cycle == target;
  }

  if (!reproduced.empty()) {
    out << "  reproduced: " << reproduced << "\n";
  }
  if (!trace_out.empty()) {
    // The restored TELE section holds the crashed run's recorded history,
    // so this trace shows the intervals and events leading to the failure.
    TelemetryFlushContext ctx = corun_telemetry_context(
        rc, corun.workload, assembly, corun.workload.label());
    ctx.crashed = true;
    ctx.crash_kind = m.error_kind;
    ctx.crash_cycle = m.failure_cycle;
    write_trace_json(trace_out, *assembly.telemetry, ctx);
    out << "  trace exported to " << trace_out << "\n";
  }
  out << "\n" << sim.gpu().flight_recorder().render_timeline(48) << "\n";
  out << "  recorded state hash:   0x" << std::hex << m.failure_state_hash
      << "\n  replayed state hash:   0x" << sim.state_hash() << std::dec
      << " at cycle " << sim.gpu().now() << "\n";
  if (matched) {
    out << "triage: VERIFIED — replay reproduces the recorded failure "
           "state bit-exactly\n";
    return 0;
  }
  out << "triage: STATE HASH MISMATCH — the replay diverged from the "
         "recorded failure state"
      << (m.build != build_fingerprint() ? " (note: different build)" : "")
      << "\n";
  return 4;
}

}  // namespace

int run_triage(const std::string& bundle_dir, std::ostream& out,
               const std::string& trace_out) {
  try {
    return triage_impl(bundle_dir, out, trace_out);
  } catch (const SimError& e) {
    out << "triage: cannot triage " << bundle_dir << ":\n" << e.what()
        << "\n";
    return 3;
  } catch (const std::exception& e) {
    out << "triage: cannot triage " << bundle_dir << ": " << e.what()
        << "\n";
    return 3;
  }
}

}  // namespace gpusim
