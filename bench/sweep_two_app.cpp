// Crash-safe full two-application sweep (the paper's 105-pair evaluation
// set, Section V) through the SimGuard SweepRunner: every finished pair is
// checkpointed to JSONL before the next one starts, failed pairs are
// retried with backoff, and re-running after an interruption resumes from
// the checkpoint and produces a byte-identical results file.
//
// Pairs run concurrently on a worker pool (REPRO_JOBS, default one per
// hardware thread); the results file is byte-identical for any job count.
//
//   sweep_two_app [checkpoint.jsonl [results.json]]
//
// Environment: REPRO_CORUN_CYCLES / REPRO_PAIR_LIMIT / REPRO_WATCHDOG /
// REPRO_JOBS as in the other bench binaries.
#include <atomic>

#include "bench_util.hpp"
#include "harness/sweep.hpp"
#include "kernels/workload_sets.hpp"

int main(int argc, char** argv) {
  using namespace gpusim;
  using namespace gpusim::bench;

  const std::string checkpoint =
      argc > 1 ? argv[1] : "sweep_two_app.ckpt.jsonl";
  const std::string out = argc > 2 ? argv[2] : "sweep_two_app.json";

  banner("Crash-safe two-app sweep (all pairs)",
         "paper Section V workload set; resumable via " + checkpoint);

  auto workloads = all_two_app_workloads();
  const int limit = pair_limit(static_cast<int>(workloads.size()));
  if (limit < static_cast<int>(workloads.size())) {
    workloads.resize(limit);
  }

  const ExperimentRunner runner(default_run_config());
  const ModelSet models{.dase = true, .mise = true, .asm_model = true};

  SweepOptions opts;
  opts.checkpoint_path = checkpoint;
  opts.max_attempts = 3;
  opts.backoff_ms = 100;
  opts.jobs = static_cast<int>(cycles_from_env("REPRO_JOBS", 0));

  std::atomic<int> done{0};
  const std::size_t total = workloads.size();
  SweepRunner sweep(opts, [&](const Workload& w) {
    std::printf("[%3d/%3zu] %s\n", done.fetch_add(1) + 1, total,
                w.label().c_str());
    std::fflush(stdout);
    return runner.run(w, models);
  });

  const std::vector<SweepEntry> entries = sweep.run(workloads);
  SweepRunner::write_results(out, entries);

  int failed = 0;
  for (const SweepEntry& e : entries) {
    if (!e.ok) {
      ++failed;
      std::printf("FAILED %s after %d attempts: %s\n", e.label.c_str(),
                  e.attempts, e.error.c_str());
    }
  }
  std::printf("\n%zu pairs (%d resumed from checkpoint, %d failed)\n",
              entries.size(), sweep.resumed(), failed);
  std::printf("results: %s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}
