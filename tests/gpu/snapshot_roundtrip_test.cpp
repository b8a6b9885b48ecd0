// Snapshot/restore property tests: for random configs and workloads, a run
// that is snapshotted at cycle C and restored into a *fresh* simulation
// must be indistinguishable — final state hash, counters, and every
// interval sample after C — from the run that was never interrupted.
#include "gpu/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

/// Records a digest of every interval sample it observes, so two runs'
/// sample streams can be compared exactly.
class SampleRecorder final : public IntervalObserver {
 public:
  void on_interval(const IntervalSample& s, Gpu&) override {
    Hasher h;
    h.put_u64(s.start);
    h.put_u64(s.length);
    h.put_i32(s.total_sms);
    h.put_i32(s.count_apps);
    h.put_u64(s.total_requests_served);
    h.put_u64(s.nonpriority_cycles);
    for (const AppIntervalData& a : s.apps) {
      h.put_i32(a.app);
      h.put_double(a.alpha);
      h.put_u64(a.sm_cycles);
      h.put_i32(a.num_sms);
      h.put_u64(a.instructions);
      h.put_i32(a.active_blocks);
      h.put_u64(a.remaining_blocks);
      h.put_u64(a.requests_served);
      h.put_u64(a.bank_service_time);
      h.put_u64(a.erb_miss);
      h.put_u64(a.ellc_miss_scaled);
      h.put_u64(a.l2_accesses);
      h.put_u64(a.l2_hits);
      h.put_double(a.blp);
      h.put_double(a.blp_access);
    }
    digests.push_back(h.digest());
  }
  std::vector<u64> digests;
};

struct Trial {
  GpuConfig cfg;
  std::vector<AppLaunch> launches;
};

/// One random trial setup: 2–4 registry applications, random seeds, and a
/// couple of perturbed (but valid) config knobs.
Trial random_trial(Rng& rng) {
  Trial t;
  t.cfg.estimation_interval = rng.next_bool(0.5) ? 20'000 : 50'000;
  t.cfg.l2_mshr_entries = rng.next_bool(0.5) ? 64 : 128;
  t.cfg.dram_queue_capacity = rng.next_bool(0.5) ? 32 : 64;
  t.cfg.noc_queue_depth = rng.next_bool(0.5) ? 4 : 8;

  const auto& registry = app_registry();
  const int n = 2 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    const KernelProfile& app =
        registry[static_cast<std::size_t>(rng.next_below(registry.size()))];
    t.launches.push_back(AppLaunch{app, rng.next_u64()});
  }
  return t;
}

struct SimUnderTest {
  explicit SimUnderTest(const Trial& t)
      : dase(std::make_unique<DaseModel>()),
        recorder(std::make_unique<SampleRecorder>()),
        sim(std::make_unique<Simulation>(t.cfg, t.launches)) {
    sim->gpu().set_partition(even_partition(
        sim->gpu().num_sms(), static_cast<int>(t.launches.size())));
    sim->add_observer(dase.get());
    sim->add_observer(recorder.get());
  }
  std::unique_ptr<DaseModel> dase;
  std::unique_ptr<SampleRecorder> recorder;
  std::unique_ptr<Simulation> sim;
};

TEST(SnapshotRoundTrip, RestoredRunMatchesUninterruptedRun) {
  Rng rng(20260805);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Trial t = random_trial(rng);
    const Cycle snap_at = 20'000 + rng.next_below(5) * 10'000;
    const Cycle total = snap_at + 30'000 + rng.next_below(4) * 10'000;

    // Reference: uninterrupted run.
    SimUnderTest ref(t);
    ref.sim->run(total);
    const u64 ref_hash = ref.sim->state_hash();

    // Snapshot at snap_at, restore into a FRESH simulation, run to end.
    SimUnderTest first(t);
    first.sim->run(snap_at);
    const u64 snapshot_time_samples = first.sim->intervals_completed();
    const std::vector<u8> bytes = first.sim->snapshot();

    SimUnderTest resumed(t);
    resumed.sim->restore(bytes);
    EXPECT_EQ(resumed.sim->gpu().now(), snap_at);
    EXPECT_EQ(resumed.sim->state_hash(), first.sim->state_hash());
    resumed.sim->run(total - snap_at);

    EXPECT_EQ(resumed.sim->state_hash(), ref_hash);
    EXPECT_EQ(resumed.sim->gpu().now(), ref.sim->gpu().now());
    EXPECT_EQ(resumed.sim->intervals_completed(),
              ref.sim->intervals_completed());
    for (int a = 0; a < resumed.sim->gpu().num_apps(); ++a) {
      EXPECT_EQ(resumed.sim->gpu().instructions().total(a),
                ref.sim->gpu().instructions().total(a));
    }
    // Every interval sample fired after the snapshot point is identical.
    ASSERT_LE(snapshot_time_samples + resumed.recorder->digests.size(),
              ref.recorder->digests.size() + snapshot_time_samples + 1);
    ASSERT_EQ(resumed.recorder->digests.size(),
              ref.recorder->digests.size() - snapshot_time_samples);
    for (std::size_t i = 0; i < resumed.recorder->digests.size(); ++i) {
      EXPECT_EQ(resumed.recorder->digests[i],
                ref.recorder->digests[i + snapshot_time_samples]);
    }
    // DASE estimates at the end agree too.
    for (int a = 0; a < resumed.sim->gpu().num_apps(); ++a) {
      EXPECT_EQ(resumed.dase->mean_slowdown(a), ref.dase->mean_slowdown(a));
    }
  }
}

TEST(SnapshotRoundTrip, ActivityEngineOnOffHashesAgree) {
  Rng rng(77);
  const Trial t = random_trial(rng);
  SimUnderTest on(t);
  SimUnderTest off(t);
  on.sim->set_activity_sched(true);
  off.sim->set_activity_sched(false);
  for (int stride = 0; stride < 6; ++stride) {
    on.sim->run(10'000);
    off.sim->run(10'000);
    ASSERT_EQ(on.sim->state_hash(), off.sim->state_hash())
        << "diverged by stride " << stride;
  }
}

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpusim_snap_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(SnapshotFileTest, FileRoundTripRestoresExactState) {
  Rng rng(5);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(30'000);
  const u64 fp = simulation_fingerprint(*a.sim, 17);
  write_snapshot_file(path("a.simstate"), *a.sim, fp);

  const SnapshotHeader hdr = read_snapshot_header(path("a.simstate"));
  EXPECT_EQ(hdr.version, kSnapshotVersion);
  EXPECT_EQ(hdr.cycle, 30'000u);
  EXPECT_EQ(hdr.fingerprint, fp);
  EXPECT_EQ(hdr.state_hash, a.sim->state_hash());

  SimUnderTest b(t);
  restore_snapshot_file(path("a.simstate"), *b.sim, fp);
  EXPECT_EQ(b.sim->gpu().now(), 30'000u);
  EXPECT_EQ(b.sim->state_hash(), a.sim->state_hash());
}

TEST_F(SnapshotFileTest, RejectsFingerprintMismatch) {
  Rng rng(6);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(5'000);
  write_snapshot_file(path("a.simstate"), *a.sim, 1111);
  SimUnderTest b(t);
  try {
    restore_snapshot_file(path("a.simstate"), *b.sim, 2222);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
    // Validation happens before any load: the target is untouched.
    EXPECT_EQ(b.sim->gpu().now(), 0u);
  }
}

TEST_F(SnapshotFileTest, RejectsAnOlderFormatVersion) {
  // A file written under the previous state layout must be refused before
  // any state loads, whatever its fingerprint says.
  Rng rng(10);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(5'000);
  const u64 fp = simulation_fingerprint(*a.sim, 0);
  write_snapshot_file(path("a.simstate"), *a.sim, fp);

  // The version word follows the 8-byte magic.
  StateWriter old_version;
  old_version.put_u32(kSnapshotVersion - 1);
  std::fstream f(path("a.simstate"),
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(8, std::ios::beg);
  f.write(reinterpret_cast<const char*>(old_version.bytes().data()),
          static_cast<std::streamsize>(old_version.bytes().size()));
  f.close();

  SimUnderTest b(t);
  try {
    restore_snapshot_file(path("a.simstate"), *b.sim, fp);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(b.sim->gpu().now(), 0u);
  }
}

TEST_F(SnapshotFileTest, RejectsCorruptedPayload) {
  Rng rng(7);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(5'000);
  const u64 fp = simulation_fingerprint(*a.sim, 0);
  write_snapshot_file(path("a.simstate"), *a.sim, fp);

  // Flip one byte in the middle of the payload.
  std::fstream f(path("a.simstate"),
                 std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(200, std::ios::beg);
  char c = 0;
  f.read(&c, 1);
  f.seekp(200, std::ios::beg);
  c = static_cast<char>(c ^ 0x40);
  f.write(&c, 1);
  f.close();

  SimUnderTest b(t);
  try {
    restore_snapshot_file(path("a.simstate"), *b.sim, fp);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
    EXPECT_EQ(b.sim->gpu().now(), 0u);
  }
}

TEST_F(SnapshotFileTest, RejectsTruncatedFile) {
  Rng rng(8);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(5'000);
  const u64 fp = simulation_fingerprint(*a.sim, 0);
  write_snapshot_file(path("a.simstate"), *a.sim, fp);
  std::filesystem::resize_file(
      path("a.simstate"), std::filesystem::file_size(path("a.simstate")) / 2);
  SimUnderTest b(t);
  EXPECT_THROW(restore_snapshot_file(path("a.simstate"), *b.sim, fp),
               SimError);
}

TEST_F(SnapshotFileTest, RejectsNonSnapshotFile) {
  {
    std::ofstream out(path("junk.simstate"), std::ios::binary);
    out << "definitely not a snapshot";
  }
  Rng rng(9);
  const Trial t = random_trial(rng);
  SimUnderTest b(t);
  EXPECT_THROW(restore_snapshot_file(path("junk.simstate"), *b.sim, 0),
               SimError);
}

TEST(SnapshotRoundTrip, RestoreRejectsObserverCountMismatch) {
  Rng rng(10);
  const Trial t = random_trial(rng);
  SimUnderTest a(t);
  a.sim->run(1'000);
  const std::vector<u8> bytes = a.sim->snapshot();

  // A simulation with a different observer set must refuse the payload.
  DaseModel dase;
  Simulation bare(t.cfg, t.launches);
  bare.gpu().set_partition(even_partition(
      bare.gpu().num_sms(), static_cast<int>(t.launches.size())));
  bare.add_observer(&dase);  // one observer vs SimUnderTest's two
  EXPECT_THROW(bare.restore(bytes), SimError);
}

}  // namespace
}  // namespace gpusim
