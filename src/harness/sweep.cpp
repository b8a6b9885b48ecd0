#include "harness/sweep.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "harness/worker_pool.hpp"

namespace gpusim {

namespace {

std::string checkpoint_line(const SweepEntry& entry) {
  std::ostringstream ss;
  ss << "{\"label\":\"" << json_escape(entry.label)
     << "\",\"ok\":" << (entry.ok ? "true" : "false")
     << ",\"attempts\":" << entry.attempts;
  if (entry.ok) {
    ss << ",\"result\":" << entry.result_json;
  } else {
    ss << ",\"error\":\"" << json_escape(entry.error) << "\"";
  }
  ss << "}";
  return ss.str();
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts, RunFn run_fn)
    : SweepRunner(std::move(opts),
                  RunFnFactory([fn = std::move(run_fn)]() { return fn; })) {}

SweepRunner::SweepRunner(SweepOptions opts, RunFnFactory factory)
    : opts_(std::move(opts)), factory_(std::move(factory)) {
  SIM_CHECK(opts_.max_attempts >= 1,
            SimError(SimErrorKind::kHarness, "harness.sweep",
                     "max_attempts must be at least 1")
                .detail("max_attempts", opts_.max_attempts));
  SIM_CHECK(opts_.jobs >= 0,
            SimError(SimErrorKind::kHarness, "harness.sweep",
                     "jobs must be 0 (= hardware concurrency) or positive")
                .detail("jobs", opts_.jobs));
}

int SweepRunner::effective_jobs(std::size_t n_pending) const {
  return resolve_jobs(opts_.jobs, n_pending);
}

SweepEntry SweepRunner::run_one(const RunFn& fn, std::size_t index,
                                const Workload& workload) const {
  const RetryPolicy retry{opts_.max_attempts, opts_.backoff_ms};
  SweepEntry entry;
  entry.label = workload.label();
  for (int attempt = 1;; ++attempt) {
    entry.attempts = attempt;
    try {
      entry.result_json = to_json(fn(workload));
      entry.ok = true;
      return entry;
    } catch (const SimError& e) {
      // Sweep-fatal conditions: an operator interrupt or a lapsed job
      // deadline is about the *sweep*, not this pair — recording it as a
      // pair failure would poison the checkpoint (the pair would replay as
      // "failed" forever).  Propagate it uncommitted instead.
      if (e.kind() == SimErrorKind::kInterrupted ||
          e.kind() == SimErrorKind::kDeadlineExceeded) {
        throw;
      }
      entry.error = e.what();
      if (!retry.retry_after(index, attempt, e)) return entry;
    } catch (const std::exception& e) {
      entry.error = e.what();
      if (!retry.retry_after(index, attempt, e)) return entry;
    }
  }
}

std::string SweepRunner::to_json(const CoRunResult& r) {
  std::ostringstream ss;
  ss << "{\"label\":\"" << json_escape(r.label) << "\",\"cycles\":" << r.cycles
     << ",\"unfairness\":" << fmt_double(r.unfairness)
     << ",\"harmonic_speedup\":" << fmt_double(r.harmonic_speedup)
     << ",\"wasted_bw_share\":" << fmt_double(r.wasted_bw_share)
     << ",\"idle_bw_share\":" << fmt_double(r.idle_bw_share)
     << ",\"repartitions\":" << r.repartitions;
  // Anomaly counters ride along only when nonzero, so healthy-run result
  // lines stay byte-identical with earlier checkpoints/baselines (the same
  // contract as the run-mode CLI's conditional governor line).
  if (r.sanitized_estimates != 0) {
    ss << ",\"sanitized_estimates\":" << r.sanitized_estimates;
  }
  if (r.governor_interventions != 0) {
    ss << ",\"governor_interventions\":" << r.governor_interventions;
  }
  ss << ",\"apps\":[";
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    const AppResult& a = r.apps[i];
    if (i != 0) ss << ",";
    ss << "{\"abbr\":\"" << json_escape(a.abbr)
       << "\",\"instructions\":" << a.instructions
       << ",\"ipc_shared\":" << fmt_double(a.ipc_shared)
       << ",\"ipc_alone\":" << fmt_double(a.ipc_alone)
       << ",\"actual_slowdown\":" << fmt_double(a.actual_slowdown)
       << ",\"estimates\":{";
    bool first = true;
    for (const auto& [model, value] : a.estimates) {  // std::map: sorted
      if (!first) ss << ",";
      first = false;
      ss << "\"" << json_escape(model) << "\":" << fmt_double(value);
    }
    ss << "}}";
  }
  ss << "],\"app_bw_share\":[";
  for (std::size_t i = 0; i < r.app_bw_share.size(); ++i) {
    if (i != 0) ss << ",";
    ss << fmt_double(r.app_bw_share[i]);
  }
  ss << "]}";
  return ss.str();
}

std::vector<SweepEntry> SweepRunner::run(
    const std::vector<Workload>& workloads) {
  resumed_ = 0;
  attempts_spent_ = 0;
  torn_lines_skipped_ = 0;

  // Resume: the last checkpoint line for a label wins, and only a
  // successful one replays — its result object verbatim, which is what
  // makes an interrupted + resumed results file byte-identical.
  std::map<std::string, std::string> done;  // label -> result object
  Ledger checkpoint(opts_.checkpoint_path, "harness.sweep",
                    [&](const std::string& line) {
                      const auto label = json_string_field(line, "label");
                      if (!label || label->empty()) return false;
                      if (line.find("\"ok\":true") == std::string::npos) {
                        done.erase(*label);
                        return true;
                      }
                      const auto pos = line.find("\"result\":");
                      if (pos == std::string::npos) return false;
                      done[*label] = line.substr(
                          pos + 9, line.size() - (pos + 9) - 1);
                      return true;
                    });
  torn_lines_skipped_ = checkpoint.torn_lines();

  // Replay checkpointed pairs and collect the still-pending workload
  // indices.  Entries live in one pre-sized vector indexed by workload
  // position: workers write disjoint slots, and the final assembly is in
  // workload order regardless of completion order — this is what makes
  // write_results() byte-identical for every jobs value.
  std::vector<SweepEntry> entries(workloads.size());
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    SweepEntry& entry = entries[i];
    entry.label = workloads[i].label();
    const auto it = done.find(entry.label);
    if (it != done.end()) {
      entry.ok = true;
      entry.from_checkpoint = true;
      entry.result_json = it->second;
      ++resumed_;
    } else {
      pending.push_back(i);
    }
  }

  // Each worker owns its RunFn.  A drain (the cancel flag) leaves unclaimed
  // pairs pending for the next resume; a sweep-fatal error or a fail_fast
  // failure stops the claiming, and the pool rethrows the lowest-index one.
  const int jobs = effective_jobs(pending.size());
  std::vector<RunFn> fns;
  for (int w = 0; w < std::max(1, jobs); ++w) fns.push_back(factory_());

  run_indexed(
      pending.size(), jobs,
      [&](int w, std::size_t k) {
        const std::size_t i = pending[k];
        SweepEntry entry = run_one(fns[w], i, workloads[i]);
        // One complete line per finished pair, flushed before the worker
        // picks up its next pair, so a crash loses at most the pairs in
        // progress.
        checkpoint.append(checkpoint_line(entry));
        if (!entry.ok && opts_.fail_fast) {
          SIM_FAIL(SimError(SimErrorKind::kHarness, "harness.sweep",
                            "workload pair failed and fail_fast is set")
                       .detail("workload", entry.label)
                       .detail("attempts", entry.attempts)
                       .detail("last_error", entry.error));
        }
        entries[i] = std::move(entry);
      },
      opts_.cancel);

  for (const SweepEntry& entry : entries) attempts_spent_ += entry.attempts;
  return entries;
}

void SweepRunner::write_results(const std::string& path,
                                const std::vector<SweepEntry>& entries) {
  std::ostringstream out;
  out << "{\"results\":[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& entry = entries[i];
    if (entry.ok) {
      out << entry.result_json;
    } else {
      out << "{\"label\":\"" << json_escape(entry.label)
          << "\",\"failed\":true,\"error\":\"" << json_escape(entry.error)
          << "\"}";
    }
    out << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  atomic_write_file(path, out.str(), "harness.sweep");
}

}  // namespace gpusim
