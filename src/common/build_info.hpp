// Build fingerprint: makes every artifact (snapshot, crash bundle,
// --version output) attributable to the build that produced it.
//
// The fingerprint is a stable 64-bit hash over the release version, the
// compiled-in feature set and the build flavour (optimisation + sanitizers).
// It deliberately excludes anything machine- or time-dependent: two
// checkouts of the same source built the same way produce the same
// fingerprint on any host, so a triage session can tell "same build" from
// "different build" without trusting timestamps.
//
// Schema versions for the file formats owned by the harness live here too;
// the snapshot file schema stays in gpu/snapshot.hpp (the gpu layer owns
// that format) and is passed in where a human-readable line wants it.
#pragma once

#include <string>

#include "common/types.hpp"

namespace gpusim {

/// Release version of the simulator (bumped per feature PR).
inline constexpr const char* kGpusimVersion = "0.8.0";

/// Schema of the crash-forensics bundle directory (manifest.json format).
inline constexpr u32 kCrashBundleSchema = 2;

/// Comma-separated feature flags compiled into this build.
std::string build_features();

/// Build flavour: "release" or "debug", plus ",asan"/",ubsan"/",tsan"
/// when a sanitizer is compiled in.
std::string build_type();

/// Stable 64-bit hash of version + features + build type.
u64 build_fingerprint();

/// One human-readable line, e.g. for --version:
///   dase-gpusim 0.8.0 (snapshot v3, bundle v1;
///   features: ...; build: release; fingerprint 0x...)
/// `snapshot_schema` is the gpu layer's snapshot file version.
std::string build_fingerprint_line(u32 snapshot_schema);

}  // namespace gpusim
