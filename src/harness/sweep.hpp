// SimGuard crash-safe, parallel sweep runner.
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
// One key decides whether a pair runs.  The caller supplies each pair's
// key (the CLI passes its corun_fingerprint), every checkpoint line carries
// the key of the co-run that produced it, and a line stands in for a pair
// only when the keys match.  So a resume under another --cycles, --models,
// --seed or --config re-runs every pair instead of replaying results from
// a different co-run.
//
// Every pair runs once.  A seeded co-run repeats its errors bit for bit,
// watchdog stalls included, so a pair that throws is recorded with its
// error and the sweep moves on (or aborts under `fail_fast`); the next
// invocation over the same checkpoint runs it again.
//
// Parallelism model (`SweepOptions::jobs`): pairs share no simulator
// state, so the shared worker pool (run_indexed) claims pending workload
// indices from an atomic cursor and runs them concurrently, every worker
// calling the one RunFn (typically over one const ExperimentRunner, which
// holds no mutable state).  Determinism is preserved by construction:
//   - each pair's result depends only on the workload, never on which
//     thread ran it or when;
//   - finished pairs append to the checkpoint (a common/jsonl.hpp Ledger),
//     one complete line per pair — line *order* varies across runs, but
//     resume loads the checkpoint into a key-indexed map, so order never
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
  /// checkpointing (the sweep cannot resume).
  std::string checkpoint_path;
  /// Abort the sweep (rethrow as SimError(kHarness)) on the first pair that
  /// fails, instead of recording the failure and moving on.
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
  /// True when the entry was taken from the checkpoint instead of re-run.
  bool from_checkpoint = false;
  /// The error message when !ok.
  std::string error;
  /// Serialized CoRunResult (the checkpoint line's "result" object,
  /// verbatim) when ok.
  std::string result_json;
};

class SweepRunner {
 public:
  /// The key of one workload's checkpoint lines: equal only for workloads
  /// that RunFn simulates identically (the CLI uses corun_fingerprint).
  /// Called once per workload at the start of run(), on the calling thread.
  using KeyFn = std::function<std::string(const Workload&)>;
  /// The function that actually runs one workload.  Tests substitute
  /// failing runners here; production code wraps ExperimentRunner::run.
  /// With jobs > 1 every worker invokes this one callable concurrently, so
  /// it must be thread-safe — a const ExperimentRunner is.
  using RunFn = std::function<CoRunResult(const Workload&)>;

  SweepRunner(SweepOptions opts, KeyFn key_fn, RunFn run_fn);

  /// Runs every workload (resuming from the checkpoint when one exists)
  /// and returns one entry per workload, in workload order.  A checkpoint
  /// file none of whose lines is a checkpoint line is refused with
  /// SimError(kHarness) and left untouched.
  std::vector<SweepEntry> run(const std::vector<Workload>& workloads);

  /// Workloads skipped in the last run() because the checkpoint already
  /// held a successful result under their key.
  int resumed() const { return resumed_; }
  /// Torn, unparseable or keyless checkpoint lines skipped (with a stderr
  /// warning) while resuming the last run() — e.g. a line truncated by a
  /// crash mid-write, or one written before lines carried keys.  The
  /// affected pairs re-run, and the lines are dropped from the file, so a
  /// later resume does not count them again.  Whole lines under other keys
  /// are not counted: they belong to other co-runs and stay in the file.
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

 private:
  SweepEntry run_one(const Workload& workload) const;

  SweepOptions opts_;
  KeyFn key_fn_;
  RunFn run_fn_;
  int resumed_ = 0;
  int torn_lines_skipped_ = 0;
};

}  // namespace gpusim
