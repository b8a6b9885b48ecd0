// Corruption torture: every loader in the forensics path — the snapshot
// restorer, the crash-bundle manifest reader, and the whole --triage
// pipeline — must survive arbitrary byte-level damage (truncations, bit
// flips, torn files) with a typed SimError or a clean result, never a
// crash, hang or silent acceptance of corrupt state.  tools/check_sanitize.sh
// runs this suite under ASan/UBSan, which is what turns "didn't crash in
// the test harness" into "provably no out-of-bounds read or UB".
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/crash_bundle.hpp"
#include "harness/runner.hpp"
#include "harness/triage.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

/// SplitMix64: deterministic corruption positions, independent of libc.
u64 splitmix(u64& state) {
  state += 0x9E3779B97F4A7C15ull;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<unsigned char> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gpusim_torture_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // One real crash bundle to torture: SD+SA hung by a partition stalled
    // from cycle 1000 on, which the 3K-cycle watchdog reports at 6144.
    rc_.co_run_cycles = 20'000;
    rc_.watchdog_cycles = 3'000;
    rc_.faults = FaultSchedule::parse("stall:part=0,from=1000");
    rc_.crash_bundle_dir = (dir_ / "bundles").string();
    workload_.apps.push_back(*find_app("SD"));
    workload_.apps.push_back(*find_app("SA"));
    ExperimentRunner runner(rc_);
    try {
      runner.run(workload_, models_);
      ADD_FAILURE() << "a partition stalled forever let the run finish";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kWatchdogStall) << e.what();
    }
    for (const auto& entry : fs::directory_iterator(rc_.crash_bundle_dir)) {
      if (entry.path().filename().string().rfind(".tmp-", 0) != 0) {
        bundle_ = entry.path();
      }
    }
    ASSERT_FALSE(bundle_.empty());
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh simulation assembled exactly like the crashed one, the way
  /// triage does it — the restore target for snapshot torture.
  CoRunAssembly fresh_assembly() {
    return assemble_corun(rc_, workload_, models_, PolicyKind::kEven);
  }

  fs::path dir_;
  fs::path bundle_;
  RunConfig rc_;
  Workload workload_;
  ModelSet models_{.dase = true};
};

TEST_F(TortureTest, SnapshotTruncationsAlwaysRaiseTypedErrors) {
  const CrashBundleManifest m = read_crash_bundle_manifest(bundle_.string());
  const std::vector<unsigned char> orig =
      read_file(bundle_ / "snapshot.simstate");
  ASSERT_GT(orig.size(), 64u);
  const fs::path mutant = dir_ / "truncated.simstate";

  // A spread of truncation points: inside the header, on the payload
  // boundary, and scattered through the payload (including length 0).
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 15, 16, 31, 63};
  for (int i = 1; i <= 24; ++i) {
    cuts.push_back(orig.size() * static_cast<std::size_t>(i) / 25);
  }
  for (const std::size_t cut : cuts) {
    if (cut >= orig.size()) continue;
    write_file(mutant,
               std::vector<unsigned char>(orig.begin(),
                                          orig.begin() +
                                              static_cast<std::ptrdiff_t>(cut)));
    CoRunAssembly assembly = fresh_assembly();
    try {
      restore_snapshot_file(mutant.string(), *assembly.sim,
                            m.fingerprint);
      FAIL() << "truncation to " << cut << " bytes restored cleanly";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << "cut=" << cut;
    }
  }
}

TEST_F(TortureTest, SnapshotBitFlipsNeverRestoreSilently) {
  const CrashBundleManifest m = read_crash_bundle_manifest(bundle_.string());
  const std::vector<unsigned char> orig =
      read_file(bundle_ / "snapshot.simstate");
  const fs::path mutant = dir_ / "flipped.simstate";

  u64 rng = 0xC0FFEE;
  int rejected = 0;
  constexpr int kFlips = 160;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<unsigned char> bytes = orig;
    const std::size_t pos =
        static_cast<std::size_t>(splitmix(rng) % bytes.size());
    bytes[pos] ^=
        static_cast<unsigned char>(1u << (splitmix(rng) % 8));
    write_file(mutant, bytes);
    CoRunAssembly assembly = fresh_assembly();
    try {
      restore_snapshot_file(mutant.string(), *assembly.sim,
                            m.fingerprint);
      // The only header bytes the integrity chain deliberately leaves
      // uncovered are the informational build/cycle fields; a flip there
      // may restore cleanly, but then the restored *state* must still be
      // bit-exact.  Silent acceptance of corrupt state is the one
      // forbidden outcome.
      EXPECT_EQ(assembly.sim->state_hash(), m.failure_state_hash)
          << "flip at byte " << pos << " restored corrupt state silently";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot)
          << "flip at byte " << pos << ": " << e.what();
      ++rejected;
    }
  }
  // The chain covers everything except those 16 informational bytes, so
  // nearly every flip must be rejected outright.
  EXPECT_GE(rejected, kFlips - 8);
}

TEST_F(TortureTest, ManifestDamageNeverCrashesTriage) {
  const fs::path manifest = bundle_ / "manifest.json";
  const std::vector<unsigned char> orig = read_file(manifest);
  ASSERT_GT(orig.size(), 32u);

  // Truncations: triage must return an exit code, never throw or crash.
  for (int i = 0; i < 16; ++i) {
    const std::size_t cut = orig.size() * static_cast<std::size_t>(i) / 16;
    write_file(manifest,
               std::vector<unsigned char>(orig.begin(),
                                          orig.begin() +
                                              static_cast<std::ptrdiff_t>(cut)));
    std::ostringstream out;
    const int code = run_triage(bundle_.string(), out);
    EXPECT_TRUE(code == 0 || code == 3 || code == 4)
        << "cut=" << cut << " code=" << code;
  }

  // Seeded bit flips, including ones inside string values and numbers.
  u64 rng = 0xDECAF;
  for (int i = 0; i < 64; ++i) {
    std::vector<unsigned char> bytes = orig;
    const std::size_t pos =
        static_cast<std::size_t>(splitmix(rng) % bytes.size());
    bytes[pos] ^= static_cast<unsigned char>(1u << (splitmix(rng) % 8));
    write_file(manifest, bytes);
    std::ostringstream out;
    const int code = run_triage(bundle_.string(), out);
    EXPECT_TRUE(code == 0 || code == 3 || code == 4)
        << "flip at byte " << pos << " code=" << code;
  }
  write_file(manifest, orig);
}

TEST_F(TortureTest, ConfigDamageIsContainedToExitCode3) {
  const fs::path config = bundle_ / "config.txt";
  const std::vector<unsigned char> orig = read_file(config);
  u64 rng = 0xBADC0DE;
  for (int i = 0; i < 32; ++i) {
    std::vector<unsigned char> bytes = orig;
    const std::size_t pos =
        static_cast<std::size_t>(splitmix(rng) % bytes.size());
    bytes[pos] ^= static_cast<unsigned char>(1u << (splitmix(rng) % 8));
    write_file(config, bytes);
    std::ostringstream out;
    const int code = run_triage(bundle_.string(), out);
    // A flip that survives config parsing changes the config, which the
    // snapshot fingerprint then rejects (3); a flip that lands in
    // whitespace or a comment can still verify (0).  Either way: typed.
    EXPECT_TRUE(code == 0 || code == 3 || code == 4)
        << "flip at byte " << pos << " code=" << code;
  }
  write_file(config, orig);
}

TEST_F(TortureTest, EmptyAndGarbageManifestsAreTyped) {
  const fs::path garbage = dir_ / "garbage-bundle";
  fs::create_directories(garbage);

  std::ofstream(garbage / "manifest.json") << "";
  EXPECT_THROW(read_crash_bundle_manifest(garbage.string()), SimError);

  std::ofstream(garbage / "manifest.json") << "not json at all \x01\x02";
  EXPECT_THROW(read_crash_bundle_manifest(garbage.string()), SimError);

  std::ofstream(garbage / "manifest.json")
      << "{\"schema\": \"gpusim-crash-bundle-v2\"}";
  // Right schema, everything else missing: still typed.
  try {
    read_crash_bundle_manifest(garbage.string());
    FAIL() << "expected SimError(kSnapshot)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
  }
}

}  // namespace
}  // namespace gpusim
