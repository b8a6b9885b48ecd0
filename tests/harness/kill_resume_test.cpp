// End-to-end crash recovery: a child process running a snapshot-enabled
// co-run is SIGKILLed mid-simulation; re-running the same experiment in
// the parent auto-resumes from the orphaned snapshot file and must produce
// results byte-identical to a run that was never interrupted.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {
namespace {

namespace fs = std::filesystem;

Workload test_workload() {
  Workload w;
  w.apps.push_back(*find_app("SD"));
  w.apps.push_back(*find_app("SA"));
  return w;
}

RunConfig base_config(const std::string& snapshot_dir) {
  RunConfig rc;
  rc.co_run_cycles = 150'000;
  rc.snapshot_every = 5'000;
  rc.snapshot_dir = snapshot_dir;
  return rc;
}

TEST(KillResume, Sigkill9ThenRestartIsByteIdentical) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("gpusim_kill_resume_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string snap_file = (dir / "SD+SA.simstate").string();

  // Reference: uninterrupted run, no snapshotting at all.
  std::string expected;
  {
    RunConfig rc = base_config(dir.string());
    rc.snapshot_every = 0;
    ExperimentRunner runner(rc);
    expected = SweepRunner::to_json(runner.run(test_workload(), ModelSet{}));
  }

  // Child: same experiment with snapshotting on; killed as soon as the
  // first snapshot file is published.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    RunConfig rc = base_config(dir.string());
    try {
      ExperimentRunner runner(rc);
      runner.run(test_workload(), ModelSet{});
    } catch (...) {
    }
    _exit(0);
  }
  bool killed = false;
  for (int i = 0; i < 20'000; ++i) {  // up to ~20s
    if (fs::exists(snap_file)) {
      kill(child, SIGKILL);
      killed = true;
      break;
    }
    int status = 0;
    if (waitpid(child, &status, WNOHANG) == child) break;  // finished early
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (killed) {
    int status = 0;
    waitpid(child, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_TRUE(fs::exists(snap_file))
        << "the orphaned snapshot must survive the kill";
  }

  // Restart: auto-resumes from the orphaned snapshot (when the kill won
  // the race) and must reproduce the uninterrupted result byte-for-byte.
  RunConfig rc = base_config(dir.string());
  ExperimentRunner runner(rc);
  const std::string resumed =
      SweepRunner::to_json(runner.run(test_workload(), ModelSet{}));
  EXPECT_EQ(resumed, expected);
  EXPECT_FALSE(fs::exists(snap_file))
      << "completed runs must delete their resume point";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(KillResume, StaleSnapshotFromOtherConfigIsSkippedWithFreshRun) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("gpusim_stale_snap_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  // Plant a snapshot written under a *different* run length; the
  // fingerprint mismatch must be skipped (fresh run), not fatal.
  {
    RunConfig other = base_config(dir.string());
    other.co_run_cycles = 60'000;
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      try {
        ExperimentRunner r2(other);
        r2.run(test_workload(), ModelSet{});
      } catch (...) {
      }
      _exit(0);
    }
    const std::string snap_file = (dir / "SD+SA.simstate").string();
    for (int i = 0; i < 20'000 && !fs::exists(snap_file); ++i) {
      int status = 0;
      if (waitpid(child, &status, WNOHANG) == child) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
    ASSERT_TRUE(fs::exists(snap_file));
  }

  RunConfig rc = base_config(dir.string());  // different co_run_cycles
  std::string expected;
  {
    RunConfig plain = rc;
    plain.snapshot_every = 0;
    ExperimentRunner runner(plain);
    expected = SweepRunner::to_json(runner.run(test_workload(), ModelSet{}));
  }
  ExperimentRunner runner(rc);
  const std::string got =
      SweepRunner::to_json(runner.run(test_workload(), ModelSet{}));
  EXPECT_EQ(got, expected);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace gpusim
