// SimState snapshot files: versioned, self-validating, atomically published.
//
// File layout (all fields little-endian, written via StateWriter):
//
//   magic        8 bytes  "GPUSIMSS"
//   version      u32      kSnapshotVersion
//   endianness   u32      0x01020304 (byte order probe)
//   fingerprint  u64      hash of config + workload + harness context
//   build        u64      build_fingerprint() of the writer (informational)
//   cycle        u64      gpu.now() at save time
//   state_hash   u64      Simulation::state_hash() at save time
//   payload_size u64
//   payload_hash u64      digest over the raw payload bytes
//   payload      bytes    Simulation::snapshot()
//
// Forward-compat policy: the version is bumped on ANY payload layout change
// and old versions are rejected — a cycle-accurate snapshot is only
// meaningful against the exact component layout that wrote it, so there is
// deliberately no cross-version migration.  The fingerprint rejects a
// restore into a different config/workload/harness; payload_hash rejects
// torn or corrupted files; after loading, the recomputed state hash is
// checked against the stored one, which catches save/load asymmetry bugs in
// any component.  Files are published via write-to-temp + rename, so a
// crash mid-write can never destroy the previous good snapshot.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "gpu/simulator.hpp"

namespace gpusim {

// Version 2: recovery-tap counters, SM retry/dup-expect maps, estimator
// sanitization counters, and fault-injector progress joined the state walk.
// Version 3: flight-recorder ring joined the state walk; header gained the
// writer's build fingerprint (informational — mismatch is surfaced by
// --triage, not rejected, since the config/workload fingerprint already
// gates restorability).
// Version 4: the TelemetryHub observer ("TELE" section — per-interval
// records, drained flight-recorder events, drop counters) joined the
// observer walk of every assembled co-run, so kill+resume reproduces
// byte-identical telemetry files.
// Version 5: the modeled MSHR recovery left the walk (the SM retry and
// dup-expect maps, the recovery taps, the retry config fields), the fault
// injector kept only its drop counters, and the flight-recorder event kinds
// were renumbered after the retry and removed fault kinds went.
// Version 6: the policy safety layer left the walk (its "GOVN" observer
// section, the telemetry records' intervention counter and its six
// flight-recorder event kinds), and the GPU gained the cycle its pending
// migration was requested at.
inline constexpr u32 kSnapshotVersion = 6;

struct SnapshotHeader {
  u32 version = 0;
  u64 fingerprint = 0;
  u64 build = 0;
  Cycle cycle = 0;
  u64 state_hash = 0;
  u64 payload_size = 0;
  u64 payload_hash = 0;
};

/// Fingerprint of everything a snapshot is only valid against: the full
/// GpuConfig plus, per application, the kernel profile, seed and restart
/// flag.  `harness_context` lets the caller mix in its own setup (attached
/// models, policy, planned run length) so a snapshot cannot be restored
/// into a differently assembled experiment.
u64 simulation_fingerprint(const Simulation& sim, u64 harness_context = 0);

/// The fingerprint of a Simulation(cfg, launches), computed from the inputs
/// alone, so a caller can key a unit before (or without) building it.
u64 simulation_fingerprint(const GpuConfig& cfg,
                           const std::vector<AppLaunch>& launches,
                           u64 harness_context);

/// Serializes `sim` and atomically publishes it at `path`.
/// Throws SimError(kSnapshot) on I/O failure.
void write_snapshot_file(const std::string& path, const Simulation& sim,
                         u64 fingerprint);

/// Parses and validates only the header (magic/version/endianness).
SnapshotHeader read_snapshot_header(const std::string& path);

/// Restores `sim` from `path`, validating magic, version, endianness,
/// fingerprint, payload integrity, and — after loading — that the
/// recomputed state hash matches the stored one.  Returns the header.
SnapshotHeader restore_snapshot_file(const std::string& path, Simulation& sim,
                                     u64 fingerprint);

}  // namespace gpusim
