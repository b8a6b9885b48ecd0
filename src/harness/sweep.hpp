// SimGuard crash-safe sweep runner, parallel since PR 2.
//
// The paper's headline experiments iterate all 105 two-application
// workload pairs for millions of cycles each; a crash (or an injected
// fault, or an operator Ctrl-C) hours in used to throw the whole sweep
// away.  SweepRunner checkpoints every finished pair as one JSONL line,
// flushed before the next pair starts, so a restarted sweep skips
// completed pairs and re-runs only the missing ones.  Completed results
// are replayed verbatim from the checkpoint, and the final results file is
// assembled in workload order from those stored lines — an interrupted +
// resumed sweep produces a byte-identical file to an uninterrupted one.
//
// Pairs that throw are retried under the shared RetryPolicy
// (harness/worker_pool.hpp): transient failures (watchdog stalls,
// exhausted recovery, non-simulator exceptions) up to `max_attempts` times
// with exponential backoff, deterministic SimErrors once.  A pair that
// keeps failing is recorded with its error and the sweep moves on (or
// aborts under `fail_fast`).
//
// Parallelism model (`SweepOptions::jobs`): pairs share no simulator
// state, so the shared worker pool (run_indexed) claims pending workload
// indices from an atomic cursor and runs them concurrently, each worker on
// its own RunFn (see RunFnFactory).  Determinism is preserved by
// construction:
//   - each pair's result depends only on the workload, never on which
//     thread ran it or when;
//   - finished pairs append to the checkpoint (a common/jsonl.hpp Ledger),
//     one complete line per pair — line *order* varies across runs, but
//     resume loads the checkpoint into a label-keyed map, so order never
//     matters;
//   - the final entry vector is assembled by workload index after all
//     workers join, making write_results() byte-identical for every jobs
//     value, interrupted or not.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "kernels/workload_sets.hpp"

namespace gpusim {

struct SweepOptions {
  /// JSONL checkpoint file, appended after every pair.  Empty disables
  /// checkpointing (the sweep still retries, but cannot resume).
  std::string checkpoint_path;
  /// Total tries per pair (first run + retries); deterministic SimErrors
  /// are tried once regardless.
  int max_attempts = 3;
  /// Exponential backoff base: retry r of a pair sleeps
  /// `backoff_ms << (r-1)` ms plus a deterministic jitter (RetryPolicy).
  int backoff_ms = 0;
  /// Abort the sweep (rethrow as SimError(kHarness)) on the first pair that
  /// exhausts its attempts, instead of recording the failure and moving on.
  bool fail_fast = false;
  /// Worker threads running pairs concurrently.  1 (the default) is the
  /// legacy serial path — no threads are spawned at all; 0 means one
  /// worker per hardware thread.  Results are byte-identical for every
  /// value.
  int jobs = 1;
  /// Graceful-shutdown flag: once true, no new pair starts; already
  /// finished pairs have their checkpoint line flushed, so rerunning the
  /// same sweep resumes exactly where the drain stopped.  Combine with
  /// RunConfig::cancel (in the RunFn's runner) to also interrupt the pair
  /// in flight — that interruption propagates out of run() as
  /// SimError(kInterrupted) rather than being recorded as a pair failure.
  const std::atomic<bool>* cancel = nullptr;
};

/// Outcome of one workload pair within a sweep.
struct SweepEntry {
  std::string label;
  bool ok = false;
  /// Attempts spent in the run that produced this entry (0 when the entry
  /// was replayed from a checkpoint).
  int attempts = 0;
  /// True when the entry was taken from the checkpoint instead of re-run.
  bool from_checkpoint = false;
  /// Last error message when !ok.
  std::string error;
  /// Serialized CoRunResult (the checkpoint line's "result" object,
  /// verbatim) when ok.
  std::string result_json;
};

class SweepRunner {
 public:
  /// The function that actually runs one workload.  Tests substitute flaky
  /// or failing runners here; production code wraps ExperimentRunner::run.
  using RunFn = std::function<CoRunResult(const Workload&)>;

  /// Creates one independent RunFn per worker thread.  ExperimentRunner
  /// mutates internal state (the alone-IPC cache), so workers must not
  /// share one instance; the factory is invoked once per worker, on the
  /// main thread, before any worker starts.
  using RunFnFactory = std::function<RunFn()>;

  /// Single shared RunFn.  With jobs > 1 the same callable is invoked from
  /// several threads at once — only safe for stateless/thread-safe
  /// runners (tests); production sweeps use the factory overload.
  SweepRunner(SweepOptions opts, RunFn run_fn);
  SweepRunner(SweepOptions opts, RunFnFactory factory);

  /// Runs every workload (resuming from the checkpoint when one exists)
  /// and returns one entry per workload, in workload order.
  std::vector<SweepEntry> run(const std::vector<Workload>& workloads);

  /// Workloads skipped in the last run() because the checkpoint already
  /// held a successful result for them.
  int resumed() const { return resumed_; }
  /// Total attempts spent across all pairs in the last run().
  int attempts_spent() const { return attempts_spent_; }
  /// Torn/unparseable checkpoint lines skipped (with a stderr warning)
  /// while resuming the last run() — e.g. a line truncated by a crash
  /// mid-write.  The affected pairs re-run.
  int torn_lines_skipped() const { return torn_lines_skipped_; }

  /// Writes the final results file: a JSON array of the per-pair result
  /// objects in entry order (failed pairs appear as {"label":…,"failed":
  /// true,"error":…}).  Written via a temp file + rename so a crash never
  /// leaves a truncated results file.
  static void write_results(const std::string& path,
                            const std::vector<SweepEntry>& entries);

  /// Deterministic serialization of one co-run result (doubles printed
  /// with %.17g so they round-trip bit-exactly).
  static std::string to_json(const CoRunResult& result);

  /// Effective worker count for `n_pending` runnable pairs (the shared
  /// pool's resolve_jobs): jobs == 0 means one worker per hardware thread,
  /// and never more workers than pairs.  Exposed for tests and CLI
  /// diagnostics.
  int effective_jobs(std::size_t n_pending) const;

 private:
  SweepEntry run_one(const RunFn& fn, std::size_t index,
                     const Workload& workload) const;

  SweepOptions opts_;
  RunFnFactory factory_;
  int resumed_ = 0;
  int attempts_spent_ = 0;
  int torn_lines_skipped_ = 0;
};

}  // namespace gpusim
