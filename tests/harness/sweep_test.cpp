// Crash-safe sweep semantics: retry with backoff, checkpoint after every
// pair, resume without recomputation, and byte-identical final results
// whether or not the sweep was interrupted.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hpp"
#include "kernels/workload_sets.hpp"

namespace gpusim {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "gpusim_sweep_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic fake result: the same workload always serializes to the
/// same bytes, like the (seeded) real simulator.
CoRunResult fake_result(const Workload& w) {
  CoRunResult r;
  r.label = w.label();
  r.cycles = 1'000 + w.label().size();
  r.unfairness = 1.25;
  r.harmonic_speedup = 0.5;
  r.wasted_bw_share = 1.0 / 3.0;  // exercises %.17g round-tripping
  r.idle_bw_share = 0.125;
  for (const KernelProfile& app : w.apps) {
    AppResult a;
    a.abbr = app.abbr;
    a.instructions = 10'000 + app.abbr.size();
    a.ipc_shared = 0.5;
    a.ipc_alone = 1.0;
    a.actual_slowdown = 2.0;
    a.estimates["DASE"] = 1.9;
    r.apps.push_back(a);
    r.app_bw_share.push_back(0.25);
  }
  return r;
}

std::vector<Workload> first_workloads(int n) {
  auto all = all_two_app_workloads();
  all.resize(n);
  return all;
}

TEST(SweepRunnerTest, RunsEveryWorkloadWithoutCheckpoint) {
  const auto workloads = first_workloads(4);
  int calls = 0;
  SweepRunner sweep({}, [&](const Workload& w) {
    ++calls;
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_EQ(calls, 4);
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(entries[i].ok);
    EXPECT_EQ(entries[i].label, workloads[i].label());
    EXPECT_FALSE(entries[i].from_checkpoint);
    EXPECT_EQ(entries[i].attempts, 1);
  }
}

TEST(SweepRunnerTest, FlakyPairIsRetriedUntilItSucceeds) {
  const auto workloads = first_workloads(3);
  const std::string flaky = workloads[1].label();
  std::map<std::string, int> calls;
  SweepOptions opts;
  opts.max_attempts = 3;
  SweepRunner sweep(opts, [&](const Workload& w) {
    if (++calls[w.label()] < 3 && w.label() == flaky) {
      throw std::runtime_error("transient failure");
    }
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_TRUE(entries[1].ok);
  EXPECT_EQ(entries[1].attempts, 3);
  EXPECT_EQ(calls[flaky], 3);
  EXPECT_EQ(entries[0].attempts, 1);
  EXPECT_EQ(sweep.attempts_spent(), 5);
}

TEST(SweepRunnerTest, BackoffDelaysEachRetry) {
  SweepOptions opts;
  opts.max_attempts = 3;
  opts.backoff_ms = 15;
  int calls = 0;
  SweepRunner sweep(opts, [&](const Workload& w) {
    if (++calls < 3) throw std::runtime_error("transient failure");
    return fake_result(w);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto entries = sweep.run(first_workloads(1));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_EQ(entries[0].attempts, 3);
  // Exponential backoff: at least 15 ms after the first failure + 30 ms
  // after the second (each plus a jitter of up to 15 ms).
  EXPECT_GE(elapsed.count(), 40);
}

TEST(SweepRunnerTest, OnlyTransientFailuresAreRetried) {
  // A seeded simulator repeats a deterministic failure exactly, so it runs
  // once; a watchdog stall may be a one-off and gets every attempt.  A
  // blown cycle or memory budget is deterministic too: the same pair
  // blows it again.
  const auto workloads = first_workloads(3);
  const std::string deterministic = workloads[0].label();
  const std::string over_budget = workloads[2].label();
  std::map<std::string, int> calls;
  SweepOptions opts;
  opts.max_attempts = 3;
  SweepRunner sweep(opts, [&](const Workload& w) -> CoRunResult {
    ++calls[w.label()];
    if (w.label() == deterministic) {
      throw SimError(SimErrorKind::kConservation, "test", "leak");
    }
    if (w.label() == over_budget) {
      throw SimError(SimErrorKind::kBudgetExceeded, "test", "budget");
    }
    throw SimError(SimErrorKind::kWatchdogStall, "test", "stall");
  });
  const auto entries = sweep.run(workloads);
  EXPECT_EQ(calls[workloads[0].label()], 1);
  EXPECT_EQ(entries[0].attempts, 1);
  EXPECT_EQ(calls[workloads[1].label()], 3);
  EXPECT_EQ(entries[1].attempts, 3);
  EXPECT_EQ(calls[over_budget], 1);
  EXPECT_EQ(entries[2].attempts, 1);
  EXPECT_NE(entries[2].error.find("budget-exceeded"), std::string::npos);
  EXPECT_FALSE(entries[0].ok);
  EXPECT_FALSE(entries[1].ok);
  EXPECT_FALSE(entries[2].ok);
}

TEST(SweepRunnerTest, PermanentFailureIsRecordedAndSweepContinues) {
  const auto workloads = first_workloads(3);
  const std::string bad = workloads[0].label();
  SweepOptions opts;
  opts.max_attempts = 2;
  SweepRunner sweep(opts, [&](const Workload& w) {
    if (w.label() == bad) throw std::runtime_error("broken pair");
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_FALSE(entries[0].ok);
  EXPECT_EQ(entries[0].attempts, 2);
  EXPECT_NE(entries[0].error.find("broken pair"), std::string::npos);
  EXPECT_TRUE(entries[1].ok);
  EXPECT_TRUE(entries[2].ok);
}

TEST(SweepRunnerTest, FailFastAbortsOnFirstPermanentFailure) {
  const auto workloads = first_workloads(3);
  const std::string bad = workloads[0].label();
  SweepOptions opts;
  opts.max_attempts = 2;
  opts.fail_fast = true;
  int calls = 0;
  SweepRunner sweep(opts, [&](const Workload&) -> CoRunResult {
    ++calls;
    throw std::runtime_error("broken pair");
  });
  try {
    sweep.run(workloads);
    FAIL() << "fail_fast did not abort";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
  }
  EXPECT_EQ(calls, 2);  // only the first pair was attempted
}

TEST(SweepRunnerTest, ResumeSkipsCompletedPairs) {
  const std::string ckpt = temp_path("resume.jsonl");
  std::remove(ckpt.c_str());
  const auto workloads = first_workloads(5);

  // "Crash" after the first two pairs: run a sweep over only the prefix.
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(first_workloads(2));
  }

  int calls = 0;
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  SweepRunner sweep(opts, [&](const Workload& w) {
    ++calls;
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_EQ(calls, 3);  // only the three missing pairs ran
  EXPECT_EQ(sweep.resumed(), 2);
  EXPECT_TRUE(entries[0].from_checkpoint);
  EXPECT_TRUE(entries[1].from_checkpoint);
  EXPECT_FALSE(entries[2].from_checkpoint);
  for (const SweepEntry& e : entries) EXPECT_TRUE(e.ok);
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, InterruptedAndResumedSweepWritesIdenticalBytes) {
  const auto workloads = first_workloads(6);

  // Uninterrupted reference sweep.
  const std::string ref_out = temp_path("ref.json");
  {
    SweepRunner sweep({}, fake_result);
    SweepRunner::write_results(ref_out, sweep.run(workloads));
  }

  // Interrupted sweep: first 3 pairs, then a fresh process resumes.
  const std::string ckpt = temp_path("interrupted.jsonl");
  std::remove(ckpt.c_str());
  const std::string out = temp_path("resumed.json");
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(first_workloads(3));  // killed here
  }
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    SweepRunner::write_results(out, sweep.run(workloads));
    EXPECT_EQ(sweep.resumed(), 3);
  }

  const std::string expected = slurp(ref_out);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, slurp(out));
  std::remove(ckpt.c_str());
  std::remove(ref_out.c_str());
  std::remove(out.c_str());
}

TEST(SweepRunnerTest, FailedPairIsRetriedOnResume) {
  const std::string ckpt = temp_path("retry_resume.jsonl");
  std::remove(ckpt.c_str());
  const auto workloads = first_workloads(2);
  const std::string bad = workloads[0].label();

  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    opts.max_attempts = 1;
    SweepRunner sweep(opts, [&](const Workload& w) -> CoRunResult {
      if (w.label() == bad) throw std::runtime_error("flaky machine");
      return fake_result(w);
    });
    const auto entries = sweep.run(workloads);
    EXPECT_FALSE(entries[0].ok);
  }
  // The machine is healthy again: the failed pair re-runs, the good pair
  // is replayed from the checkpoint.
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    int calls = 0;
    SweepRunner sweep(opts, [&](const Workload& w) {
      ++calls;
      return fake_result(w);
    });
    const auto entries = sweep.run(workloads);
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(entries[0].ok);
    EXPECT_FALSE(entries[0].from_checkpoint);
    EXPECT_TRUE(entries[1].from_checkpoint);
  }
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, TornCheckpointLineIsIgnored) {
  const std::string ckpt = temp_path("torn.jsonl");
  const auto workloads = first_workloads(2);
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(first_workloads(1));
  }
  // Simulate a crash mid-write: append half a line.
  {
    std::ofstream out(ckpt, std::ios::app);
    out << "{\"label\":\"" << workloads[1].label() << "\",\"ok\":tr";
  }
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  int calls = 0;
  SweepRunner sweep(opts, [&](const Workload& w) {
    ++calls;
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_EQ(calls, 1);  // the torn pair re-ran, the complete one did not
  EXPECT_TRUE(entries[0].from_checkpoint);
  EXPECT_TRUE(entries[1].ok);
  EXPECT_EQ(sweep.torn_lines_skipped(), 1);  // warned, not silent
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, CleanCheckpointReportsNoTornLines) {
  const std::string ckpt = temp_path("clean.jsonl");
  const auto workloads = first_workloads(2);
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(workloads);
    EXPECT_EQ(sweep.torn_lines_skipped(), 0);
  }
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  SweepRunner sweep(opts, fake_result);
  sweep.run(workloads);
  EXPECT_EQ(sweep.torn_lines_skipped(), 0);
  EXPECT_EQ(sweep.resumed(), 2);
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, ResumeSealsTornTailBeforeAppending) {
  const std::string ckpt = temp_path("torn_tail.jsonl");
  const auto workloads = first_workloads(2);
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(first_workloads(1));
  }
  // A torn fragment that already reached its "result" object: if a resume
  // appends straight after it, the glued line parses as the fragment's
  // label with the appended pair's payload.
  {
    std::ofstream out(ckpt, std::ios::app);
    out << "{\"label\":\"" << workloads[1].label()
        << "\",\"ok\":true,\"attempts\":1,\"result\":{\"label\":\""
        << workloads[1].label() << "\",\"cyc";
  }
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, fake_result);
    sweep.run(workloads);
  }
  // A second resume over the repaired checkpoint must replay both pairs
  // with intact result objects, not the glued garbage.
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  int calls = 0;
  SweepRunner sweep(opts, [&](const Workload& w) {
    ++calls;
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_EQ(calls, 0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].result_json,
            SweepRunner::to_json(fake_result(workloads[1])));
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, WriteResultsRecordsFailuresWithErrors) {
  std::vector<SweepEntry> entries(2);
  entries[0].label = "A+B";
  entries[0].ok = true;
  entries[0].result_json = "{\"label\":\"A+B\"}";
  entries[1].label = "C+D";
  entries[1].error = "queue overflow\nat cycle 7";
  const std::string out = temp_path("failures.json");
  SweepRunner::write_results(out, entries);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("{\"label\":\"A+B\"}"), std::string::npos);
  EXPECT_NE(text.find("\"failed\":true"), std::string::npos);
  EXPECT_NE(text.find("queue overflow\\nat cycle 7"), std::string::npos);
  std::remove(out.c_str());
}

TEST(SweepRunnerTest, ToJsonIsDeterministic) {
  const auto workloads = first_workloads(1);
  const CoRunResult r = fake_result(workloads[0]);
  EXPECT_EQ(SweepRunner::to_json(r), SweepRunner::to_json(r));
  EXPECT_NE(SweepRunner::to_json(r).find("0.33333333333333331"),
            std::string::npos);
}

TEST(SweepRunnerTest, RejectsZeroAttempts) {
  SweepOptions opts;
  opts.max_attempts = 0;
  EXPECT_THROW(SweepRunner(opts, fake_result), SimError);
}

TEST(SweepRunnerTest, RejectsNegativeJobs) {
  SweepOptions opts;
  opts.jobs = -1;
  EXPECT_THROW(SweepRunner(opts, fake_result), SimError);
}

// --- parallel sweep (jobs > 1): same bytes, same crash-safety ---

std::string sweep_and_serialize(
    SweepOptions opts, const std::vector<Workload>& workloads,
    const std::string& tag, const SweepRunner::RunFn& run_fn = fake_result) {
  const std::string out = temp_path(tag + ".json");
  SweepRunner sweep(opts, run_fn);
  SweepRunner::write_results(out, sweep.run(workloads));
  const std::string text = slurp(out);
  std::remove(out.c_str());
  return text;
}

TEST(SweepRunnerParallelTest, JobsEightWritesBytesIdenticalToSerial) {
  const auto workloads = first_workloads(8);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const std::string a = sweep_and_serialize(serial, workloads, "par_serial");
  const std::string b = sweep_and_serialize(parallel, workloads, "par_jobs8");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(SweepRunnerParallelTest, InterruptedParallelSweepResumesByteIdentical) {
  const auto workloads = first_workloads(8);

  // Uninterrupted serial reference.
  const std::string expected =
      sweep_and_serialize({}, workloads, "par_resume_ref");

  // Parallel sweep "killed" after a prefix, with a torn line appended the
  // way a mid-write crash would leave it; a parallel resume must repair
  // the tail and produce the reference bytes.
  const std::string ckpt = temp_path("par_resume.jsonl");
  std::remove(ckpt.c_str());
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    opts.jobs = 4;
    SweepRunner sweep(opts, fake_result);
    sweep.run(first_workloads(4));  // killed here
  }
  {
    std::ofstream out(ckpt, std::ios::app);
    out << "{\"label\":\"" << workloads[5].label() << "\",\"ok\":tr";
  }
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  opts.jobs = 8;
  const std::string out = temp_path("par_resumed.json");
  SweepRunner sweep(opts, fake_result);
  SweepRunner::write_results(out, sweep.run(workloads));
  EXPECT_EQ(sweep.resumed(), 4);
  EXPECT_EQ(expected, slurp(out));
  std::remove(ckpt.c_str());
  std::remove(out.c_str());
}

TEST(SweepRunnerParallelTest, FlakyPairIsRetriedOnItsWorker) {
  const auto workloads = first_workloads(6);
  const std::string flaky = workloads[2].label();
  std::mutex mu;
  std::map<std::string, int> calls;
  SweepOptions opts;
  opts.max_attempts = 3;
  opts.jobs = 4;
  SweepRunner sweep(opts, [&](const Workload& w) {
    int attempt;
    {
      std::lock_guard<std::mutex> lock(mu);
      attempt = ++calls[w.label()];
    }
    if (w.label() == flaky && attempt < 3) {
      throw std::runtime_error("transient failure");
    }
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_TRUE(entries[2].ok);
  EXPECT_EQ(entries[2].attempts, 3);
  EXPECT_EQ(sweep.attempts_spent(), 8);
}

TEST(SweepRunnerParallelTest, FailFastRethrowsLowestIndexFailure) {
  const auto workloads = first_workloads(6);
  SweepOptions opts;
  opts.max_attempts = 1;
  opts.fail_fast = true;
  opts.jobs = 8;
  SweepRunner sweep(opts, [&](const Workload&) -> CoRunResult {
    throw std::runtime_error("broken pair");
  });
  try {
    sweep.run(workloads);
    FAIL() << "fail_fast did not abort";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
    // Several pairs fail concurrently; the rethrow must deterministically
    // name the lowest-index one.
    EXPECT_NE(std::string(e.what()).find(workloads[0].label()),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepRunnerParallelTest, OneConstRunnerServesEveryWorker) {
  // ExperimentRunner holds no mutable state, so all workers share one:
  // real co-runs with exact alone replays must give the serial bytes.
  RunConfig rc;
  rc.co_run_cycles = 20'000;
  rc.gpu.estimation_interval = 10'000;
  const ExperimentRunner runner(rc);
  const SweepRunner::RunFn run = [&runner](const Workload& w) {
    return runner.run(w, ModelSet{.dase = true});
  };
  const auto workloads = first_workloads(4);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  const std::string a =
      sweep_and_serialize(serial, workloads, "shared_serial", run);
  const std::string b =
      sweep_and_serialize(parallel, workloads, "shared_jobs4", run);
  EXPECT_NE(a.find("\"ipc_alone\""), std::string::npos) << a;
  EXPECT_EQ(a.find("\"failed\""), std::string::npos) << a;
  EXPECT_EQ(a, b);
}

TEST(SweepRunnerParallelTest, JobsZeroMeansHardwareConcurrency) {
  SweepOptions opts;
  opts.jobs = 0;
  SweepRunner sweep(opts, fake_result);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(sweep.effective_jobs(1000), hw);
  EXPECT_EQ(sweep.effective_jobs(1), 1);  // never more workers than pairs
  const auto entries = sweep.run(first_workloads(3));
  ASSERT_EQ(entries.size(), 3u);
  for (const SweepEntry& e : entries) EXPECT_TRUE(e.ok);
}

TEST(SweepRunnerParallelTest, WorkersOverlapInTime) {
  // Not a throughput claim (the host may have one core): sleeping runs
  // overlap iff the pool really dispatches pairs to distinct threads.
  const auto workloads = first_workloads(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  SweepOptions opts;
  opts.jobs = 4;
  SweepRunner sweep(opts, [&](const Workload& w) {
    const int now = ++in_flight;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    --in_flight;
    return fake_result(w);
  });
  sweep.run(workloads);
  EXPECT_GE(max_in_flight.load(), 2);
}

}  // namespace
}  // namespace gpusim
