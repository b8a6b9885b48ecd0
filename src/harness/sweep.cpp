#include "harness/sweep.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "harness/worker_pool.hpp"

namespace gpusim {

namespace {

std::string checkpoint_line(const std::string& key, const SweepEntry& entry) {
  std::ostringstream ss;
  ss << "{\"key\":\"" << json_escape(key) << "\",\"label\":\""
     << json_escape(entry.label)
     << "\",\"ok\":" << (entry.ok ? "true" : "false");
  if (entry.ok) {
    ss << ",\"result\":" << entry.result_json;
  } else {
    ss << ",\"error\":\"" << json_escape(entry.error) << "\"";
  }
  ss << "}";
  return ss.str();
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions opts, KeyFn key_fn, RunFn run_fn)
    : opts_(std::move(opts)),
      key_fn_(std::move(key_fn)),
      run_fn_(std::move(run_fn)) {
  SIM_CHECK(opts_.jobs >= 0,
            SimError(SimErrorKind::kHarness, "harness.sweep",
                     "jobs must be 0 (= hardware concurrency) or positive")
                .detail("jobs", opts_.jobs));
}

SweepEntry SweepRunner::run_one(const Workload& workload) const {
  SweepEntry entry;
  entry.label = workload.label();
  try {
    entry.result_json = to_json(run_fn_(workload));
    entry.ok = true;
  } catch (const SimError& e) {
    // Sweep-fatal conditions: an operator interrupt or a lapsed deadline
    // is about the *sweep*, not this pair — recording it as a pair
    // failure would poison the checkpoint (the pair would replay as
    // "failed" forever).  Propagate it uncommitted instead.
    if (e.kind() == SimErrorKind::kInterrupted ||
        e.kind() == SimErrorKind::kDeadlineExceeded) {
      throw;
    }
    entry.error = e.what();
  } catch (const std::exception& e) {
    entry.error = e.what();
  }
  return entry;
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
  torn_lines_skipped_ = 0;

  std::vector<std::string> keys;
  keys.reserve(workloads.size());
  for (const Workload& w : workloads) keys.push_back(key_fn_(w));

  // Resume: the last checkpoint line for a key wins, and only a successful
  // one replays — its result object verbatim, which is what makes an
  // interrupted + resumed results file byte-identical.  Every checkpoint
  // line has a "label" and an "ok" field; one without a key predates keyed
  // lines and is stale, so its pair re-runs.  Skipped lines are dropped
  // from the file, so the next resume reads it clean.
  std::map<std::string, std::string> done;  // key -> result object
  Ledger checkpoint(
      opts_.checkpoint_path, "harness.sweep", [&](const std::string& line) {
        if (!json_string_field(line, "label") ||
            line.find("\"ok\":") == std::string::npos) {
          return Ledger::Verdict::kForeign;
        }
        const auto key = json_string_field(line, "key");
        if (!key || key->empty()) return Ledger::Verdict::kStale;
        if (line.find("\"ok\":true") == std::string::npos) {
          done.erase(*key);
          return Ledger::Verdict::kUse;
        }
        const auto pos = line.find("\"result\":");
        if (pos == std::string::npos) return Ledger::Verdict::kStale;
        done[*key] = line.substr(pos + 9, line.size() - (pos + 9) - 1);
        return Ledger::Verdict::kUse;
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
    const auto it = done.find(keys[i]);
    if (it != done.end()) {
      entry.ok = true;
      entry.from_checkpoint = true;
      entry.result_json = it->second;
      ++resumed_;
    } else {
      pending.push_back(i);
    }
  }

  // A drain (the cancel flag) leaves unclaimed pairs pending for the next
  // resume; a sweep-fatal error or a fail_fast failure stops the claiming,
  // and the pool rethrows the lowest-index one.
  run_indexed(
      pending.size(), opts_.jobs,
      [&](int, std::size_t k) {
        const std::size_t i = pending[k];
        SweepEntry entry = run_one(workloads[i]);
        // One complete line per finished pair, flushed before the worker
        // picks up its next pair, so a crash loses at most the pairs in
        // progress.
        checkpoint.append(checkpoint_line(keys[i], entry));
        if (!entry.ok && opts_.fail_fast) {
          SIM_FAIL(SimError(SimErrorKind::kHarness, "harness.sweep",
                            "workload pair failed and fail_fast is set")
                       .detail("workload", entry.label)
                       .detail("error", entry.error));
        }
        entries[i] = std::move(entry);
      },
      opts_.cancel);
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
