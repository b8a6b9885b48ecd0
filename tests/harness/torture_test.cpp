// Corruption torture: the snapshot restorer must survive arbitrary
// byte-level damage (truncations, bit flips) with a typed SimError or a
// bit-exact restore, never a crash, hang or silent acceptance of corrupt
// state.  tools/check_sanitize.sh runs this suite under ASan/UBSan, which
// is what turns "didn't crash in the test harness" into "provably no
// out-of-bounds read or UB".
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "gpu/simulator.hpp"
#include "gpu/snapshot.hpp"
#include "harness/runner.hpp"
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

    // One real failed co-run's state to torture: SD+SA hung by a partition
    // stalled from cycle 1000 on, which the 3K-cycle watchdog reports at
    // 6144, saved the way the runner saves its stride snapshots.
    rc_.co_run_cycles = 20'000;
    rc_.watchdog_cycles = 3'000;
    rc_.faults = FaultSchedule::parse("stall:part=0,from=1000");
    workload_.apps.push_back(*find_app("SD"));
    workload_.apps.push_back(*find_app("SA"));
    CoRunAssembly failed = fresh_assembly();
    try {
      failed.sim->run(rc_.co_run_cycles);
      ADD_FAILURE() << "a partition stalled forever let the run finish";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kWatchdogStall) << e.what();
    }
    fingerprint_ = corun_fingerprint(rc_, workload_, models_,
                                     PolicyKind::kEven, nullptr);
    state_hash_ = failed.sim->state_hash();
    snapshot_ = dir_ / "failed.simstate";
    write_snapshot_file(snapshot_.string(), *failed.sim, fingerprint_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh simulation assembled exactly like the failed one, the way the
  /// runner assembles a resume — the restore target for snapshot torture.
  CoRunAssembly fresh_assembly() {
    return assemble_corun(rc_, workload_, models_, PolicyKind::kEven);
  }

  fs::path dir_;
  fs::path snapshot_;
  u64 fingerprint_ = 0;
  u64 state_hash_ = 0;
  RunConfig rc_;
  Workload workload_;
  ModelSet models_{.dase = true};
};

TEST_F(TortureTest, SnapshotTruncationsAlwaysRaiseTypedErrors) {
  const std::vector<unsigned char> orig = read_file(snapshot_);
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
      restore_snapshot_file(mutant.string(), *assembly.sim, fingerprint_);
      FAIL() << "truncation to " << cut << " bytes restored cleanly";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot) << "cut=" << cut;
    }
  }
}

TEST_F(TortureTest, SnapshotBitFlipsNeverRestoreSilently) {
  const std::vector<unsigned char> orig = read_file(snapshot_);
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
      restore_snapshot_file(mutant.string(), *assembly.sim, fingerprint_);
      // The only header bytes the integrity chain deliberately leaves
      // uncovered are the informational build/cycle fields; a flip there
      // may restore cleanly, but then the restored *state* must still be
      // bit-exact.  Silent acceptance of corrupt state is the one
      // forbidden outcome.
      EXPECT_EQ(assembly.sim->state_hash(), state_hash_)
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

}  // namespace
}  // namespace gpusim
