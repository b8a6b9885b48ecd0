// ChaosLab campaign engine: every job in a campaign must land in exactly
// one of the four outcome classes (there is no "unknown"), a planted
// multi-event failure must delta-debug down to a tiny reproducer that
// replays to the same class, and the campaign report must be byte-for-byte
// deterministic — across worker counts and across a kill/resume with a
// torn checkpoint tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "harness/chaos.hpp"
#include "kernels/workload_sets.hpp"

namespace gpusim {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Small fast campaign used by the determinism/resume tests.
ChaosOptions small_campaign() {
  ChaosOptions opts;
  opts.schedules = 8;
  opts.seed = 2026;
  opts.cycles = 10'000;
  opts.minimize = false;
  return opts;
}

TEST(ChaosCampaignTest, EveryScheduleIsClassified) {
  ChaosOptions opts;
  opts.schedules = 50;
  opts.seed = 7;
  opts.cycles = 10'000;
  opts.jobs = 0;  // one worker per hardware thread
  opts.minimize = false;
  const ChaosReport report = run_chaos_campaign(opts);

  ASSERT_EQ(report.jobs.size(), 50u);
  const int classified = report.count(ChaosOutcome::kRecovered) +
                         report.count(ChaosOutcome::kGuardCaught) +
                         report.count(ChaosOutcome::kWrongResult) +
                         report.count(ChaosOutcome::kHang);
  EXPECT_EQ(classified, 50);
  for (const ChaosJobResult& job : report.jobs) {
    EXPECT_FALSE(job.schedule.empty()) << "job " << job.index;
    EXPECT_FALSE(job.detail.empty()) << "job " << job.index;
    EXPECT_FALSE(job.replay.empty()) << "job " << job.index;
    EXPECT_FALSE(job.json.empty()) << "job " << job.index;
    EXPECT_GT(job.final_cycle, 0u) << "job " << job.index;
  }
  // A healthy campaign mix exercises more than one class.
  EXPECT_GT(report.count(ChaosOutcome::kRecovered), 0);
  EXPECT_LT(report.count(ChaosOutcome::kRecovered), 50);
}

TEST(ChaosCampaignTest, RandomSchedulesAreSeedDeterministic) {
  const FaultSchedule a = random_fault_schedule(99, 40'000, 4, 4);
  const FaultSchedule b = random_fault_schedule(99, 40'000, 4, 4);
  EXPECT_EQ(a.to_string(), b.to_string());
  ASSERT_GE(a.events.size(), 1u);
  ASSERT_LE(a.events.size(), 4u);
  const FaultSchedule c = random_fault_schedule(100, 40'000, 4, 4);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(ChaosCampaignTest, PlantedLeakMinimizesToTinyReproducer) {
  // One real bug (a dropped response with recovery off) buried in three
  // harmless noise events.  Delta debugging must strip the noise and keep
  // a reproducer of at most two events that replays to the same class.
  const FaultSchedule planted = FaultSchedule{}
                                    .nack_response(80, 120)
                                    .stall_partition(1, 2'000, 5'000)
                                    .drop_response_nth(200)
                                    .nack_response(400, 90);
  ChaosOptions opts;
  opts.cycles = 40'000;
  opts.recovery = false;
  const Workload workload = all_two_app_workloads().front();

  const ChaosJobResult full = run_chaos_job(opts, workload, false, planted);
  ASSERT_EQ(full.outcome, ChaosOutcome::kGuardCaught) << full.detail;

  const FaultSchedule minimal = minimize_failing_schedule(
      opts, workload, false, planted, full.outcome);
  EXPECT_LE(minimal.events.size(), 2u) << minimal.to_string();
  bool kept_the_bug = false;
  for (const FaultEvent& e : minimal.events) {
    if (e.kind == FaultKind::kDropResponse) kept_the_bug = true;
  }
  EXPECT_TRUE(kept_the_bug) << minimal.to_string();

  // The minimized schedule must reproduce the original failure class
  // through the same entry point the CLI replay uses.
  const ChaosJobResult replay = run_chaos_job(opts, workload, false, minimal);
  EXPECT_EQ(replay.outcome, full.outcome) << replay.detail;
}

TEST(ChaosCampaignTest, ReportIsByteIdenticalForAnyWorkerCount) {
  ChaosOptions serial = small_campaign();
  serial.jobs = 1;
  ChaosOptions parallel = small_campaign();
  parallel.jobs = 4;
  const std::string a = run_chaos_campaign(serial).to_json();
  const std::string b = run_chaos_campaign(parallel).to_json();
  EXPECT_EQ(a, b);
}

TEST(ChaosCampaignTest, ResumedCampaignReproducesTheReportByteForByte) {
  ChaosOptions opts = small_campaign();
  const ChaosReport fresh = run_chaos_campaign(opts);
  const std::string expected = fresh.to_json();

  // First attempt "killed" mid-campaign: keep the first three checkpoint
  // lines plus a torn fragment the way a crash mid-write would leave it.
  const std::string ckpt = temp_path("chaos_resume.jsonl");
  std::remove(ckpt.c_str());
  opts.checkpoint_path = ckpt;
  run_chaos_campaign(opts);
  std::vector<std::string> lines;
  {
    std::ifstream in(ckpt);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 8u);
  {
    std::ofstream out(ckpt, std::ios::trunc);
    for (int i = 0; i < 3; ++i) out << lines[static_cast<std::size_t>(i)] << "\n";
    out << "{\"index\":6,\"workload\":\"SD";  // torn tail, no newline
  }

  const ChaosReport resumed = run_chaos_campaign(opts);
  EXPECT_EQ(resumed.resumed, 3);
  EXPECT_EQ(resumed.torn_lines_skipped, 1);
  EXPECT_EQ(resumed.to_json(), expected);
  // Resumed jobs carry every field a fresh job does, not just the line.
  ASSERT_EQ(resumed.jobs.size(), fresh.jobs.size());
  for (std::size_t i = 0; i < fresh.jobs.size(); ++i) {
    const ChaosJobResult& a = fresh.jobs[i];
    const ChaosJobResult& b = resumed.jobs[i];
    EXPECT_EQ(b.from_checkpoint, i < 3) << "job " << i;
    EXPECT_EQ(b.index, a.index) << "job " << i;
    EXPECT_EQ(b.workload, a.workload) << "job " << i;
    EXPECT_EQ(b.policy, a.policy) << "job " << i;
    EXPECT_EQ(b.schedule, a.schedule) << "job " << i;
    EXPECT_EQ(b.outcome, a.outcome) << "job " << i;
    EXPECT_EQ(b.error_kind, a.error_kind) << "job " << i;
    EXPECT_EQ(b.detail, a.detail) << "job " << i;
    EXPECT_EQ(b.final_cycle, a.final_cycle) << "job " << i;
    EXPECT_EQ(b.retries_issued, a.retries_issued) << "job " << i;
    EXPECT_EQ(b.duplicates_absorbed, a.duplicates_absorbed) << "job " << i;
    EXPECT_EQ(b.sanitized_estimates, a.sanitized_estimates) << "job " << i;
    EXPECT_EQ(b.governor_interventions, a.governor_interventions)
        << "job " << i;
    EXPECT_EQ(b.minimized_schedule, a.minimized_schedule) << "job " << i;
    EXPECT_EQ(b.minimized_events, a.minimized_events) << "job " << i;
    EXPECT_EQ(b.replay, a.replay) << "job " << i;
  }
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace gpusim
