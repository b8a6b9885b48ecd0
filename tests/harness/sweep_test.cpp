// Crash-safe sweep semantics: every pair runs once, a checkpoint line after
// every pair, resume only from lines under the pair's own key, and
// byte-identical final results whether or not the sweep was interrupted.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_error.hpp"
#include "harness/worker_pool.hpp"
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

/// Checkpoint keys of the workloads a RunFn simulates under `config`,
/// standing in for the CLI's corun_fingerprint: equal keys, equal co-runs.
SweepRunner::KeyFn keyed(const std::string& config) {
  return [config](const Workload& w) { return config + "/" + w.label(); };
}

TEST(SweepRunnerTest, RunsEveryWorkloadWithoutCheckpoint) {
  const auto workloads = first_workloads(4);
  int calls = 0;
  SweepRunner sweep({}, keyed("K"), [&](const Workload& w) {
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
  }
}

TEST(SweepRunnerTest, EveryFailureRunsOnce) {
  // A seeded co-run repeats its errors bit for bit, a watchdog stall
  // included, so a failing pair is called once and recorded with its
  // error; the next invocation over the checkpoint runs it again.
  const std::string ckpt = temp_path("once.jsonl");
  std::remove(ckpt.c_str());
  const auto workloads = first_workloads(4);
  const std::vector<std::function<void()>> failures = {
      [] { throw SimError(SimErrorKind::kWatchdogStall, "test", "stall"); },
      [] { throw SimError(SimErrorKind::kConservation, "test", "leak"); },
      [] { throw SimError(SimErrorKind::kBudgetExceeded, "test", "budget"); },
      [] { throw std::runtime_error("helper thread did not start"); },
  };
  const char* errors[] = {"stall", "leak", "budget",
                          "helper thread did not start"};
  std::map<std::string, int> calls;
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) -> CoRunResult {
    ++calls[w.label()];
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      if (w.label() == workloads[i].label()) failures[i]();
    }
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(calls[workloads[i].label()], 1) << i;
    EXPECT_FALSE(entries[i].ok) << i;
    EXPECT_NE(entries[i].error.find(errors[i]), std::string::npos)
        << entries[i].error;
  }
  const std::string lines = slurp(ckpt);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 4);
  EXPECT_EQ(lines.find("\"ok\":true"), std::string::npos) << lines;
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, PermanentFailureIsRecordedAndSweepContinues) {
  const auto workloads = first_workloads(3);
  const std::string bad = workloads[0].label();
  SweepRunner sweep({}, keyed("K"), [&](const Workload& w) {
    if (w.label() == bad) throw std::runtime_error("broken pair");
    return fake_result(w);
  });
  const auto entries = sweep.run(workloads);
  EXPECT_FALSE(entries[0].ok);
  EXPECT_NE(entries[0].error.find("broken pair"), std::string::npos);
  EXPECT_TRUE(entries[1].ok);
  EXPECT_TRUE(entries[2].ok);
}

TEST(SweepRunnerTest, FailFastAbortsOnFirstPermanentFailure) {
  const auto workloads = first_workloads(3);
  const std::string bad = workloads[0].label();
  SweepOptions opts;
  opts.fail_fast = true;
  int calls = 0;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload&) -> CoRunResult {
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
  EXPECT_EQ(calls, 1);  // only the first pair ran, once
}

TEST(SweepRunnerTest, ResumeSkipsCompletedPairs) {
  const std::string ckpt = temp_path("resume.jsonl");
  std::remove(ckpt.c_str());
  const auto workloads = first_workloads(5);

  // "Crash" after the first two pairs: run a sweep over only the prefix.
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, keyed("K"), fake_result);
    sweep.run(first_workloads(2));
  }

  int calls = 0;
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
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
    SweepRunner sweep({}, keyed("K"), fake_result);
    SweepRunner::write_results(ref_out, sweep.run(workloads));
  }

  // Interrupted sweep: first 3 pairs, then a fresh process resumes.
  const std::string ckpt = temp_path("interrupted.jsonl");
  std::remove(ckpt.c_str());
  const std::string out = temp_path("resumed.json");
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, keyed("K"), fake_result);
    sweep.run(first_workloads(3));  // killed here
  }
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, keyed("K"), fake_result);
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
    SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) -> CoRunResult {
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
    SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
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

TEST(SweepRunnerTest, ResumeReplaysOnlyMatchingKeys) {
  // A line stands in for a pair only under the key it was written with, so
  // a resume under other arguments re-runs every pair instead of replaying
  // results from another co-run.
  const std::string ckpt = temp_path("keys.jsonl");
  std::remove(ckpt.c_str());
  const auto workloads = first_workloads(4);
  // Sweeps the first `n` workloads with fake co-runs of `cycles` cycles,
  // keyed by that length as the CLI's fingerprint covers --cycles, and
  // returns how many pairs ran.
  const auto sweep = [&](Cycle cycles, int n, int resumed, int torn) {
    int calls = 0;
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner runner(opts, keyed("cycles=" + std::to_string(cycles)),
                       [&](const Workload& w) {
                         ++calls;
                         CoRunResult r = fake_result(w);
                         r.cycles = cycles;
                         return r;
                       });
    const std::string length = "\"cycles\":" + std::to_string(cycles) + ",";
    for (const SweepEntry& e : runner.run(first_workloads(n))) {
      EXPECT_NE(e.result_json.find(length), std::string::npos)
          << e.result_json;
    }
    EXPECT_EQ(runner.resumed(), resumed);
    EXPECT_EQ(runner.torn_lines_skipped(), torn);
    return calls;
  };
  EXPECT_EQ(sweep(20'000, 3, 0, 0), 3);
  // Other keys: every pair re-runs and appends its lines beside the old
  // ones, which are neither replayed nor counted as torn.
  EXPECT_EQ(sweep(30'000, 3, 0, 0), 3);
  // The file now holds both sets; each key replays exactly its own.
  EXPECT_EQ(sweep(20'000, 3, 3, 0), 0);
  EXPECT_EQ(sweep(30'000, 3, 3, 0), 0);
  // A line without a key, as lines were written before they carried one,
  // cannot say which co-run it holds: it is skipped as stale and its pair
  // re-runs.
  {
    std::ofstream out(ckpt, std::ios::app);
    out << "{\"label\":\"" << workloads[3].label()
        << "\",\"ok\":true,\"attempts\":1,\"result\":"
        << SweepRunner::to_json(fake_result(workloads[3])) << "}\n";
  }
  EXPECT_EQ(sweep(20'000, 4, 3, 1), 1);
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, TornCheckpointLineIsIgnored) {
  const std::string ckpt = temp_path("torn.jsonl");
  const auto workloads = first_workloads(2);
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, keyed("K"), fake_result);
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
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
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
    SweepRunner sweep(opts, keyed("K"), fake_result);
    sweep.run(workloads);
    EXPECT_EQ(sweep.torn_lines_skipped(), 0);
  }
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  SweepRunner sweep(opts, keyed("K"), fake_result);
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
    SweepRunner sweep(opts, keyed("K"), fake_result);
    sweep.run(first_workloads(1));
  }
  // A torn fragment that already reached its "result" object: if a resume
  // appends straight after it, the glued line parses as the fragment's
  // key with the appended pair's payload.
  {
    std::ofstream out(ckpt, std::ios::app);
    out << "{\"key\":\"K/" << workloads[1].label() << "\",\"label\":\""
        << workloads[1].label() << "\",\"ok\":true,\"result\":{\"label\":\""
        << workloads[1].label() << "\",\"cyc";
  }
  {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    SweepRunner sweep(opts, keyed("K"), fake_result);
    sweep.run(workloads);
  }
  // A second resume over the repaired checkpoint must replay both pairs
  // with intact result objects, not the glued garbage.
  SweepOptions opts;
  opts.checkpoint_path = ckpt;
  int calls = 0;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
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

TEST(SweepRunnerTest, ResumeDropsSkippedLinesFromTheCheckpoint) {
  // A checkpoint written before lines carried keys, plus a line under
  // another key and a torn tail.  The first resume re-runs both pairs and
  // rewrites the file without the three lines it skipped, so a second
  // resume skips nothing and replays both pairs.  The other key's line
  // belongs to another co-run and stays.
  const std::string ckpt = temp_path("compact.jsonl");
  const auto workloads = first_workloads(2);
  const std::string other =
      "{\"key\":\"other/" + workloads[0].label() + "\",\"label\":\"" +
      workloads[0].label() + "\",\"ok\":true,\"result\":" +
      SweepRunner::to_json(fake_result(workloads[0])) + "}";
  {
    std::ofstream out(ckpt);
    for (const Workload& w : workloads) {
      out << "{\"label\":\"" << w.label()
          << "\",\"ok\":true,\"attempts\":1,\"result\":"
          << SweepRunner::to_json(fake_result(w)) << "}\n";
    }
    out << other << "\n";
    out << "{\"key\":\"K/" << workloads[1].label() << "\",\"ok\":tr";
  }
  const auto resume = [&](int torn, int resumed) {
    SweepOptions opts;
    opts.checkpoint_path = ckpt;
    int calls = 0;
    SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
      ++calls;
      return fake_result(w);
    });
    sweep.run(workloads);
    EXPECT_EQ(sweep.torn_lines_skipped(), torn);
    EXPECT_EQ(sweep.resumed(), resumed);
    return calls;
  };
  EXPECT_EQ(resume(3, 0), 2);
  const std::string text = slurp(ckpt);
  EXPECT_EQ(text.find("\"attempts\""), std::string::npos) << text;
  EXPECT_EQ(text.find("\"ok\":tr\n"), std::string::npos) << text;
  EXPECT_NE(text.find(other + "\n"), std::string::npos) << text;
  EXPECT_EQ(resume(0, 2), 0);
  std::remove(ckpt.c_str());
}

TEST(SweepRunnerTest, ResultsFileAsCheckpointIsRefusedUntouched) {
  // --checkpoint naming the results file: none of its lines is a
  // checkpoint line, so the sweep refuses it instead of dropping them all.
  const std::string results = temp_path("results_as_ckpt.json");
  const auto workloads = first_workloads(2);
  SweepRunner plain(SweepOptions{}, keyed("K"), fake_result);
  SweepRunner::write_results(results, plain.run(workloads));
  const std::string text = slurp(results);
  SweepOptions opts;
  opts.checkpoint_path = results;
  int calls = 0;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
    ++calls;
    return fake_result(w);
  });
  try {
    sweep.run(workloads);
    FAIL() << "a results file must not load as a checkpoint";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::kHarness);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(slurp(results), text);
  std::remove(results.c_str());
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

TEST(SweepRunnerTest, RejectsNegativeJobs) {
  SweepOptions opts;
  opts.jobs = -1;
  EXPECT_THROW(SweepRunner(opts, keyed("K"), fake_result), SimError);
}

// --- parallel sweep (jobs > 1): same bytes, same crash-safety ---

std::string sweep_and_serialize(
    SweepOptions opts, const std::vector<Workload>& workloads,
    const std::string& tag, const SweepRunner::RunFn& run_fn = fake_result) {
  const std::string out = temp_path(tag + ".json");
  SweepRunner sweep(opts, keyed("K"), run_fn);
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
    SweepRunner sweep(opts, keyed("K"), fake_result);
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
  SweepRunner sweep(opts, keyed("K"), fake_result);
  SweepRunner::write_results(out, sweep.run(workloads));
  EXPECT_EQ(sweep.resumed(), 4);
  EXPECT_EQ(expected, slurp(out));
  std::remove(ckpt.c_str());
  std::remove(out.c_str());
}

TEST(SweepRunnerParallelTest, FailFastRethrowsLowestIndexFailure) {
  const auto workloads = first_workloads(6);
  SweepOptions opts;
  opts.fail_fast = true;
  opts.jobs = 8;
  SweepRunner sweep(opts, keyed("K"), [&](const Workload&) -> CoRunResult {
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
  SweepRunner sweep(opts, keyed("K"), fake_result);
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_jobs(0, 1000), hw);
  EXPECT_EQ(resolve_jobs(0, 1), 1);  // never more workers than pairs
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
  SweepRunner sweep(opts, keyed("K"), [&](const Workload& w) {
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
