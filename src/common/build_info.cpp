#include "common/build_info.hpp"

#include <cstdio>
#include <sstream>

namespace gpusim {

namespace {

// Clang spells sanitizer detection via __has_feature; GCC via
// __SANITIZE_*__ macros.  Normalise both here.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GPUSIM_BUILD_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define GPUSIM_BUILD_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define GPUSIM_BUILD_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define GPUSIM_BUILD_TSAN 1
#endif

/// FNV-1a, the same mixing the SimState Hasher uses for byte streams.
u64 fnv1a(const std::string& text, u64 h = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string build_features() {
  // The compiled-in capability set; extend when a PR adds a subsystem an
  // artifact consumer might need to know about.
  return "activity-engine,simstate,flight-recorder,crash-bundle,triage";
}

std::string build_type() {
  std::string type =
#ifdef NDEBUG
      "release";
#else
      "debug";
#endif
#ifdef GPUSIM_BUILD_ASAN
  type += ",asan";
#endif
#ifdef GPUSIM_BUILD_TSAN
  type += ",tsan";
#endif
  return type;
}

u64 build_fingerprint() {
  u64 h = fnv1a(kGpusimVersion);
  h = fnv1a(build_features(), h);
  h = fnv1a(build_type(), h);
  return h == 0 ? 1 : h;
}

std::string build_fingerprint_line(u32 snapshot_schema) {
  std::ostringstream ss;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(build_fingerprint()));
  ss << "dase-gpusim " << kGpusimVersion << " (snapshot v" << snapshot_schema
     << ", bundle v" << kCrashBundleSchema
     << "; features: " << build_features() << "; build: " << build_type()
     << "; fingerprint 0x" << hex << ")";
  return ss.str();
}

}  // namespace gpusim
