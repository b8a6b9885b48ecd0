// Crash-forensics bundle tests: a terminal SimError in the runner (faulted
// or not) must publish one complete, atomically-renamed bundle whose
// manifest round-trips, and `run_triage` must replay the bundled state to
// the recorded failure cycle with a bit-exact state hash.  Also pins the
// negative space: tampered hashes report divergence (exit 4), malformed
// bundles are typed errors (exit 3), and in-progress ".tmp-" directories
// are never mistaken for bundles.
#include "harness/crash_bundle.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/sim_error.hpp"
#include "harness/runner.hpp"
#include "harness/triage.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

Workload two_apps(const char* a, const char* b) {
  Workload w;
  w.apps.push_back(*find_app(a));
  w.apps.push_back(*find_app(b));
  return w;
}

class CrashBundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gpusim_bundle_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string bundle_root() const { return (dir_ / "bundles").string(); }

  /// Runs VA+SD under DASE-Fair with a 50K-cycle watchdog, which its
  /// first SM drain outlives (a healthy drain takes ~440K cycles), with
  /// bundling armed, and returns the published bundle directory.  No fault
  /// is armed, so the run and its triage replay go through the activity
  /// engine.
  std::string crash_one_run() {
    RunConfig rc;
    rc.co_run_cycles = 300'000;
    rc.watchdog_cycles = 50'000;
    rc.crash_bundle_dir = bundle_root();
    ExperimentRunner runner(rc);
    try {
      runner.run(two_apps("VA", "SD"), ModelSet{.dase = true},
                 PolicyKind::kDaseFair);
      ADD_FAILURE() << "a drain past the watchdog let the run finish";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kMigrationStalled) << e.what();
    }
    for (const auto& entry : fs::directory_iterator(bundle_root())) {
      if (entry.path().filename().string().rfind(".tmp-", 0) != 0) {
        return entry.path().string();
      }
    }
    return "";
  }

  fs::path dir_;
};

TEST_F(CrashBundleTest, RunnerCrashPublishesACompleteBundle) {
  const std::string bundle = crash_one_run();
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(fs::exists(fs::path(bundle) / "manifest.json"));
  EXPECT_TRUE(fs::exists(fs::path(bundle) / "snapshot.simstate"));
  EXPECT_TRUE(fs::exists(fs::path(bundle) / "config.txt"));
  EXPECT_TRUE(fs::exists(fs::path(bundle) / "events.txt"));
  // No half-written work left behind.
  for (const auto& entry : fs::directory_iterator(bundle_root())) {
    EXPECT_EQ(entry.path().filename().string().rfind(".tmp-", 0),
              std::string::npos);
  }

  const CrashBundleManifest m = read_crash_bundle_manifest(bundle);
  EXPECT_EQ(m.schema, "gpusim-crash-bundle-v2");
  EXPECT_NE(m.build, 0u);
  EXPECT_EQ(m.corun.rc.crash_bundle_mode, "run");
  EXPECT_EQ(m.corun.workload.label(), "VA+SD");
  ASSERT_EQ(m.corun.workload.apps.size(), 2u);
  EXPECT_EQ(m.corun.workload.apps[0].abbr, "VA");
  EXPECT_EQ(m.corun.workload.apps[1].abbr, "SD");
  EXPECT_EQ(m.corun.policy, PolicyKind::kDaseFair);
  EXPECT_TRUE(m.corun.models.dase);
  EXPECT_EQ(m.failure_cycle, 150'528u);
  EXPECT_NE(m.failure_state_hash, 0u);
  EXPECT_EQ(m.error_kind, "migration-stalled");
  EXPECT_EQ(m.snapshot_file, "snapshot.simstate");
  EXPECT_NE(m.replay.find("--triage"), std::string::npos);
}

TEST_F(CrashBundleTest, TriageReplaysToTheExactFailureState) {
  const std::string bundle = crash_one_run();
  ASSERT_FALSE(bundle.empty());
  std::ostringstream out;
  EXPECT_EQ(run_triage(bundle, out), 0) << out.str();
  EXPECT_NE(out.str().find("VERIFIED"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("flight recorder:"), std::string::npos)
      << out.str();
}

TEST_F(CrashBundleTest, TamperedStateHashReportsDivergence) {
  const std::string bundle = crash_one_run();
  ASSERT_FALSE(bundle.empty());
  const fs::path manifest = fs::path(bundle) / "manifest.json";
  std::ifstream in(manifest);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string key = "\"failure_state_hash\": ";
  const std::size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  // Flip the recorded hash's first digit to a different digit.
  const std::size_t digit = pos + key.size();
  text[digit] = text[digit] == '1' ? '2' : '1';
  std::ofstream(manifest) << text;

  std::ostringstream out;
  EXPECT_EQ(run_triage(bundle, out), 4);
  EXPECT_NE(out.str().find("MISMATCH"), std::string::npos) << out.str();
}

TEST_F(CrashBundleTest, MalformedBundlesAreTypedNotFatal) {
  // Nonexistent directory.
  std::ostringstream out1;
  EXPECT_EQ(run_triage((dir_ / "no-such-bundle").string(), out1), 3);

  // Directory without a manifest (an interrupted emission, post-crash).
  const fs::path torn = dir_ / ".tmp-run-SD+SA-c100";
  fs::create_directories(torn);
  std::ostringstream out2;
  EXPECT_EQ(run_triage(torn.string(), out2), 3);

  // Manifest with the wrong schema.
  const fs::path bad = dir_ / "bad-bundle";
  fs::create_directories(bad);
  std::ofstream(bad / "manifest.json")
      << "{\n\"schema\": \"something-else\"\n}\n";
  EXPECT_THROW(read_crash_bundle_manifest(bad.string()), SimError);
  std::ostringstream out3;
  EXPECT_EQ(run_triage(bad.string(), out3), 3);
}

TEST_F(CrashBundleTest, ManifestPathTraversalIsRejected) {
  const std::string bundle = crash_one_run();
  ASSERT_FALSE(bundle.empty());
  const fs::path manifest = fs::path(bundle) / "manifest.json";
  std::ifstream in(manifest);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string key = "\"snapshot\": \"snapshot.simstate\"";
  const std::size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, key.size(), "\"snapshot\": \"../../etc/passwd\"");
  std::ofstream(manifest) << text;

  try {
    read_crash_bundle_manifest(bundle);
    FAIL() << "expected SimError(kSnapshot)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
  }
}

TEST_F(CrashBundleTest, CollidingBundleNamesGetSuffixes) {
  // Two identical crashes land under distinct directories.
  crash_one_run();
  crash_one_run();
  int published = 0;
  for (const auto& entry : fs::directory_iterator(bundle_root())) {
    if (entry.path().filename().string().rfind(".tmp-", 0) != 0) ++published;
  }
  EXPECT_EQ(published, 2);
}

TEST_F(CrashBundleTest, FaultedRunBundlesAndTriagesAWatchdogHang) {
  RunConfig rc;
  rc.co_run_cycles = 30'000;
  rc.watchdog_cycles = 5'000;
  rc.crash_bundle_dir = bundle_root();
  const FaultSchedule schedule = FaultSchedule::parse("stall:part=0,from=2000");
  rc.faults = schedule;
  try {
    ExperimentRunner(rc).run(two_apps("SD", "SA"), ModelSet{.dase = true});
    FAIL() << "a partition stalled forever let the run finish";
  } catch (const SimError& e) {
    ASSERT_EQ(e.kind(), SimErrorKind::kWatchdogStall) << e.what();
  }

  std::string bundle;
  for (const auto& entry : fs::directory_iterator(bundle_root())) {
    if (entry.path().filename().string().rfind(".tmp-", 0) != 0) {
      bundle = entry.path().string();
    }
  }
  ASSERT_FALSE(bundle.empty());
  EXPECT_EQ(fs::path(bundle).filename().string().rfind("run-", 0), 0u)
      << bundle;
  const CrashBundleManifest m = read_crash_bundle_manifest(bundle);
  EXPECT_EQ(m.corun.rc.crash_bundle_mode, "run");
  EXPECT_EQ(m.corun.rc.faults.to_string(), schedule.to_string());
  EXPECT_EQ(m.error_kind, "watchdog-stall");

  std::ostringstream out;
  EXPECT_EQ(run_triage(bundle, out), 0) << out.str();
}

TEST_F(CrashBundleTest, PolicyOptionsRoundTripThroughAnchoredBundles) {
  // Non-default policy options must reach the bundle: triage re-executes
  // from the anchor under them, and the default quantum or QoS target
  // would diverge from the recorded state.
  for (const PolicyKind policy :
       {PolicyKind::kTemporal, PolicyKind::kDaseQos}) {
    SCOPED_TRACE(to_string(policy));
    RunConfig rc;
    rc.co_run_cycles = 200'000;
    // The first switch or repartition is still draining 20K cycles after
    // its request: a migration stall at cycle 40960, after the anchor.
    rc.watchdog_cycles = 20'000;
    rc.snapshot_every = 40'000;
    rc.snapshot_dir = (dir_ / "snaps").string();
    rc.crash_bundle_dir = (dir_ / to_string(policy)).string();
    rc.gpu.estimation_interval = 10'000;
    rc.temporal.quantum = 20'000;
    rc.qos.target_slowdown = 3.5;
    ExperimentRunner runner(rc);
    try {
      runner.run(two_apps("CT", "SP"), ModelSet{.dase = true}, policy);
      FAIL() << "a switch draining past the watchdog let the run finish";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kMigrationStalled) << e.what();
    }

    std::string bundle;
    for (const auto& entry : fs::directory_iterator(rc.crash_bundle_dir)) {
      bundle = entry.path().string();
    }
    ASSERT_FALSE(bundle.empty());
    const CrashBundleManifest m = read_crash_bundle_manifest(bundle);
    EXPECT_EQ(m.anchor_file, "anchor.simstate");
    EXPECT_EQ(m.failure_cycle, 40'960u);
    EXPECT_EQ(m.corun.policy, policy);
    EXPECT_EQ(m.corun.rc.temporal.quantum, 20'000u);
    EXPECT_EQ(m.corun.rc.qos.target_slowdown, 3.5);

    std::ostringstream out;
    EXPECT_EQ(run_triage(bundle, out), 0) << out.str();
    EXPECT_NE(out.str().find("VERIFIED"), std::string::npos) << out.str();
  }
}

TEST_F(CrashBundleTest, InterruptedRunsNeverBundle) {
  RunConfig rc;
  rc.co_run_cycles = 50'000;
  rc.crash_bundle_dir = bundle_root();
  std::atomic<bool> cancel{true};  // cancel before the first chunk
  rc.cancel = &cancel;
  const ModelSet models{.dase = true};
  ExperimentRunner runner(rc);
  EXPECT_THROW(
      {
        try {
          runner.run(two_apps("SD", "SA"), models);
        } catch (const SimError& e) {
          EXPECT_EQ(e.kind(), SimErrorKind::kInterrupted);
          throw;
        }
      },
      SimError);
  // A drain is not a crash: no bundle directory appears at all.
  EXPECT_FALSE(fs::exists(bundle_root()));
}

}  // namespace
}  // namespace gpusim
