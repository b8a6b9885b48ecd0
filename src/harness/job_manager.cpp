#include "harness/job_manager.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "common/build_info.hpp"
#include "common/fault_injection.hpp"
#include "common/jsonl.hpp"
#include "common/sim_error.hpp"
#include "harness/chaos.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "harness/worker_pool.hpp"
#include "kernels/app_registry.hpp"

namespace gpusim {

namespace {

[[noreturn]] void spec_error(const std::string& line, const std::string& why) {
  SIM_FAIL(SimError(SimErrorKind::kConfig, "harness.jobs",
                    "bad job spec: " + why)
               .detail("line", line));
}

u64 parse_spec_u64(const std::string& line, const std::string& key,
                   const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    spec_error(line, key + " expects a non-negative integer, got '" + value +
                         "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    spec_error(line, key + " value out of range: '" + value + "'");
  }
  return static_cast<u64>(parsed);
}

std::vector<std::string> split_on(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Cycle effective_cycles(const JobSpec& spec, const JobManagerOptions& opts) {
  return spec.cycles != 0 ? spec.cycles : opts.default_cycles;
}

Cycle effective_watchdog(const JobSpec& spec) {
  return spec.watchdog == JobSpec::kInheritWatchdog ? RunConfig{}.watchdog_cycles
                                                    : spec.watchdog;
}

double effective_deadline_ms(const JobSpec& spec,
                             const JobManagerOptions& opts) {
  return spec.deadline_ms > 0.0 ? spec.deadline_ms : opts.default_deadline_ms;
}

int effective_retries(const JobSpec& spec, const JobManagerOptions& opts) {
  return spec.max_retries >= 0 ? spec.max_retries : opts.max_retries;
}

std::string job_snapshot_dir(const JobManagerOptions& opts, int index) {
  return opts.snapshot_dir + "/job" + std::to_string(index);
}

std::string job_telemetry_dir(const JobManagerOptions& opts, int index) {
  return opts.telemetry_dir + "/job" + std::to_string(index);
}

std::string engine_checkpoint_path(const JobManagerOptions& opts, int index,
                                   const char* engine) {
  return opts.manifest_path + ".job" + std::to_string(index) + "." + engine +
         ".jsonl";
}

Workload workload_of(const JobSpec& spec) {
  Workload w;
  for (const std::string& name : spec.apps) {
    const auto app = find_app(name);
    SIM_CHECK(app.has_value(),
              SimError(SimErrorKind::kConfig, "harness.jobs",
                       "unknown application in job spec")
                  .detail("app", name));
    w.apps.push_back(*app);
  }
  return w;
}

RunConfig base_run_config(const JobSpec& spec, const JobManagerOptions& opts,
                          std::chrono::steady_clock::time_point deadline) {
  RunConfig rc;
  rc.gpu = opts.gpu;
  rc.base_seed = opts.base_seed;
  rc.co_run_cycles = effective_cycles(spec, opts);
  rc.watchdog_cycles = effective_watchdog(spec);
  rc.wall_deadline = deadline;
  rc.cycle_budget = spec.cycle_budget;
  rc.mem_budget = spec.mem_budget;
  rc.cancel = opts.cancel;
  rc.crash_bundle_dir = opts.crash_bundle_dir;
  rc.crash_bundle_mode = "jobs";
  if (!opts.telemetry_dir.empty()) {
    rc.telemetry.dir = job_telemetry_dir(opts, spec.index);
  }
  return rc;
}

/// run job → the co-run result object (SweepRunner's canonical form).
std::string execute_run_job(const JobSpec& spec, const JobManagerOptions& opts,
                            std::chrono::steady_clock::time_point deadline) {
  RunConfig rc = base_run_config(spec, opts, deadline);
  if (!spec.faults.empty()) rc.faults = FaultSchedule::parse(spec.faults);
  if (opts.snapshot_every != 0) {
    rc.snapshot_every = opts.snapshot_every;
    rc.snapshot_dir = job_snapshot_dir(opts, spec.index);
  }
  ExperimentRunner runner(rc);
  const ModelSet models{.dase = true};
  const PolicyKind policy = spec.policy == "dase-fair" ? PolicyKind::kDaseFair
                                                       : PolicyKind::kEven;
  return SweepRunner::to_json(runner.run(workload_of(spec), models, policy));
}

/// sweep job → the per-pair entry array.  The sweep keeps its own JSONL
/// checkpoint next to the manifest, so an interrupted sweep job resumes
/// mid-sweep, not from scratch.
std::string execute_sweep_job(const JobSpec& spec,
                              const JobManagerOptions& opts,
                              std::chrono::steady_clock::time_point deadline) {
  const RunConfig rc = base_run_config(spec, opts, deadline);
  std::vector<Workload> workloads;
  if (spec.sweep_which == "all") {
    workloads = all_two_app_workloads();
  } else {
    workloads = random_two_app_workloads(
        static_cast<int>(
            parse_spec_u64(spec.raw, "which=random:N", spec.sweep_which.substr(7))),
        rc.base_seed);
  }

  SweepOptions so;
  so.checkpoint_path = engine_checkpoint_path(opts, spec.index, "sweep");
  so.jobs = 1;  // the batch parallelizes across jobs, not inside them
  so.cancel = opts.cancel;
  const ExperimentRunner runner(rc);
  SweepRunner sweep(so, [&runner](const Workload& w) {
    return runner.run(w, ModelSet{.dase = true});
  });
  const std::vector<SweepEntry> entries = sweep.run(workloads);

  int failed = 0;
  std::ostringstream payload;
  payload << "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepEntry& e = entries[i];
    // A drained slot (cancel flag mid-sweep): never attempted, no error —
    // the job is interrupted, not failed; its checkpoint resumes it.
    if (!e.ok && e.attempts == 0 && !e.from_checkpoint) {
      SIM_FAIL(SimError(SimErrorKind::kInterrupted, "harness.jobs",
                        "sweep job drained on the shutdown flag")
                   .detail("pending_pair", e.label));
    }
    if (i != 0) payload << ",";
    if (e.ok) {
      payload << e.result_json;
    } else {
      ++failed;
      payload << "{\"label\":\"" << json_escape(e.label)
              << "\",\"failed\":true,\"error\":\"" << json_escape(e.error)
              << "\"}";
    }
  }
  payload << "]";
  // Pairs already retried inside the sweep; re-running the whole job
  // cannot help, so failed pairs fail the job terminally (kHarness is a
  // fail-fast kind).  The checkpoint file keeps the per-pair detail.
  SIM_CHECK(failed == 0,
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     std::to_string(failed) + " of " +
                         std::to_string(entries.size()) +
                         " sweep pairs failed"));
  return payload.str();
}

/// chaos job → the campaign report, compacted onto one line (the report's
/// pretty form embeds newlines, which a JSONL manifest line must not).
std::string execute_chaos_job(const JobSpec& spec,
                              const JobManagerOptions& opts,
                              std::chrono::steady_clock::time_point deadline) {
  ChaosOptions co;
  co.gpu = opts.gpu;
  co.schedules = spec.chaos_schedules;
  co.seed = spec.chaos_seed;
  co.cycles = effective_cycles(spec, opts);
  co.jobs = 1;
  co.checkpoint_path = engine_checkpoint_path(opts, spec.index, "chaos");
  co.base_seed = opts.base_seed;
  co.cancel = opts.cancel;
  co.wall_deadline = deadline;
  co.crash_bundle_dir = opts.crash_bundle_dir;
  if (!opts.telemetry_dir.empty()) {
    co.telemetry_dir = job_telemetry_dir(opts, spec.index);
  }
  const ChaosReport report = run_chaos_campaign(co);
  for (const ChaosJobResult& job : report.jobs) {
    if (job.json.empty()) {
      SIM_FAIL(SimError(SimErrorKind::kInterrupted, "harness.jobs",
                        "chaos job drained on the shutdown flag")
                   .detail("pending_schedule", job.index));
    }
  }
  std::string payload = report.to_json();
  payload.erase(std::remove(payload.begin(), payload.end(), '\n'),
                payload.end());
  return payload;
}

std::string dispatch_job(const JobSpec& spec, const JobManagerOptions& opts,
                         std::chrono::steady_clock::time_point deadline) {
  switch (spec.type) {
    case JobType::kRun: return execute_run_job(spec, opts, deadline);
    case JobType::kSweep: return execute_sweep_job(spec, opts, deadline);
    case JobType::kChaos: return execute_chaos_job(spec, opts, deadline);
  }
  SIM_FAIL(SimError(SimErrorKind::kInvariant, "harness.jobs",
                    "unreachable job type"));
}

/// The terminal status a stored result line names; nullopt for anything
/// else (a pending job has no result line).
std::optional<JobStatus> terminal_status(const std::string& text) {
  for (const JobStatus status :
       {JobStatus::kOk, JobStatus::kFailed, JobStatus::kQuarantined}) {
    if (text == to_string(status)) return status;
  }
  return std::nullopt;
}

/// Canonical manifest result line for one finished job.
std::string result_line(const JobResult& r) {
  std::ostringstream ss;
  ss << "{\"job\":" << r.index << ",\"status\":\"" << to_string(r.status)
     << "\",\"attempts\":" << r.attempts;
  // Emitted only when the batch ran with telemetry enabled, so manifests of
  // telemetry-free batches stay byte-identical to previous versions.
  if (!r.telemetry_dir.empty()) {
    ss << ",\"telemetry_dir\":\"" << json_escape(r.telemetry_dir) << "\"";
  }
  if (r.status == JobStatus::kOk) {
    ss << ",\"payload\":" << r.payload_json;
  } else {
    ss << ",\"error_kind\":\"" << json_escape(r.error_kind)
       << "\",\"error_component\":\"" << json_escape(r.error_component)
       << "\",\"error_message\":\"" << json_escape(r.error_message)
       << "\",\"reproducer\":\"" << json_escape(r.reproducer) << "\"";
  }
  ss << "}";
  return ss.str();
}

}  // namespace

const char* to_string(JobType type) {
  switch (type) {
    case JobType::kRun: return "run";
    case JobType::kSweep: return "sweep";
    case JobType::kChaos: return "chaos";
  }
  return "?";
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

std::string JobSpec::config_key() const {
  // Everything behavior-determining except the index, in a fixed order, so
  // equal configs collide and distinct ones never do.
  std::ostringstream ss;
  ss << to_string(type) << "|apps=";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (i != 0) ss << ",";
    ss << apps[i];
  }
  ss << "|policy=" << policy << "|faults=" << faults
     << "|which=" << sweep_which << "|schedules=" << chaos_schedules
     << "|chaos_seed=" << chaos_seed << "|cycles=" << cycles
     << "|watchdog=" << watchdog << "|deadline_ms=" << deadline_ms
     << "|max_retries=" << max_retries << "|cycle_budget=" << cycle_budget
     << "|mem_budget=" << mem_budget;
  return ss.str();
}

JobSpec JobSpec::parse(const std::string& line, int index) {
  JobSpec spec;
  spec.index = index;
  spec.raw = line;

  std::istringstream ss(line);
  std::string token;
  SIM_CHECK(static_cast<bool>(ss >> token),
            SimError(SimErrorKind::kConfig, "harness.jobs",
                     "empty job spec line"));
  if (token == "run") {
    spec.type = JobType::kRun;
  } else if (token == "sweep") {
    spec.type = JobType::kSweep;
  } else if (token == "chaos") {
    spec.type = JobType::kChaos;
  } else {
    spec_error(line, "job type must be run|sweep|chaos, got '" + token + "'");
  }

  bool have_apps = false, have_which = false, have_schedules = false;
  while (ss >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      spec_error(line, "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "apps" && spec.type == JobType::kRun) {
      spec.apps = split_on(value, ',');
      if (spec.apps.empty()) spec_error(line, "apps= lists no applications");
      for (const std::string& name : spec.apps) {
        if (!find_app(name)) {
          spec_error(line, "unknown application '" + name + "'");
        }
      }
      have_apps = true;
    } else if (key == "policy" && spec.type == JobType::kRun) {
      if (value != "even" && value != "dase-fair") {
        spec_error(line, "policy must be even|dase-fair, got '" + value + "'");
      }
      spec.policy = value;
    } else if (key == "faults" && spec.type == JobType::kRun) {
      try {
        FaultSchedule::parse(value);  // validate now, store the spec string
      } catch (const std::exception& e) {
        spec_error(line, std::string("bad faults= spec: ") + e.what());
      }
      spec.faults = value;
    } else if (key == "which" && spec.type == JobType::kSweep) {
      if (value != "all" && value.rfind("random:", 0) != 0) {
        spec_error(line, "which must be all|random:N, got '" + value + "'");
      }
      if (value.rfind("random:", 0) == 0) {
        if (parse_spec_u64(line, "which=random:N", value.substr(7)) == 0) {
          spec_error(line, "which=random:N needs N >= 1");
        }
      }
      spec.sweep_which = value;
      have_which = true;
    } else if (key == "schedules" && spec.type == JobType::kChaos) {
      spec.chaos_schedules =
          static_cast<int>(parse_spec_u64(line, "schedules", value));
      if (spec.chaos_schedules == 0) spec_error(line, "schedules= needs >= 1");
      have_schedules = true;
    } else if (key == "seed" && spec.type == JobType::kChaos) {
      spec.chaos_seed = parse_spec_u64(line, "seed", value);
    } else if (key == "cycles") {
      spec.cycles = parse_spec_u64(line, "cycles", value);
      if (spec.cycles == 0) spec_error(line, "cycles= needs >= 1");
    } else if (key == "watchdog") {
      spec.watchdog = parse_spec_u64(line, "watchdog", value);
    } else if (key == "deadline-ms") {
      spec.deadline_ms =
          static_cast<double>(parse_spec_u64(line, "deadline-ms", value));
      if (spec.deadline_ms <= 0.0) spec_error(line, "deadline-ms= needs >= 1");
    } else if (key == "max-retries") {
      spec.max_retries =
          static_cast<int>(parse_spec_u64(line, "max-retries", value));
    } else if (key == "cycle-budget") {
      spec.cycle_budget = parse_spec_u64(line, "cycle-budget", value);
    } else if (key == "mem-budget") {
      spec.mem_budget = parse_spec_u64(line, "mem-budget", value);
    } else {
      spec_error(line, "unknown key '" + key + "' for a " +
                           std::string(to_string(spec.type)) + " job");
    }
  }

  if (spec.type == JobType::kRun && !have_apps) {
    spec_error(line, "run jobs need apps=");
  }
  if (spec.type == JobType::kSweep && !have_which) {
    spec_error(line, "sweep jobs need which=");
  }
  if (spec.type == JobType::kChaos && !have_schedules) {
    spec_error(line, "chaos jobs need schedules=");
  }
  return spec;
}

std::vector<JobSpec> parse_job_file(const std::string& path) {
  std::ifstream in(path);
  SIM_CHECK(static_cast<bool>(in),
            SimError(SimErrorKind::kConfig, "harness.jobs",
                     "cannot open job file")
                .detail("path", path));
  std::vector<JobSpec> specs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string trimmed = line.substr(first, last - first + 1);
    try {
      specs.push_back(
          JobSpec::parse(trimmed, static_cast<int>(specs.size())));
    } catch (SimError& e) {
      throw e.detail("file", path).detail("file_line", line_no);
    }
  }
  SIM_CHECK(!specs.empty(),
            SimError(SimErrorKind::kConfig, "harness.jobs",
                     "job file defines no jobs")
                .detail("path", path));
  return specs;
}

std::string job_reproducer_command(const JobSpec& spec,
                                   const JobManagerOptions& opts) {
  std::ostringstream ss;
  ss << "gpusim_cli";
  switch (spec.type) {
    case JobType::kRun: {
      ss << " --apps ";
      for (std::size_t i = 0; i < spec.apps.size(); ++i) {
        if (i != 0) ss << ",";
        ss << spec.apps[i];
      }
      if (spec.policy != "even") ss << " --policy " << spec.policy;
      ss << " --cycles " << effective_cycles(spec, opts);
      ss << " --watchdog " << effective_watchdog(spec);
      if (!spec.faults.empty()) {
        ss << " --fault-schedule '" << spec.faults << "'";
      }
      break;
    }
    case JobType::kSweep:
      ss << " --sweep " << spec.sweep_which << " --cycles "
         << effective_cycles(spec, opts) << " --jobs 1";
      break;
    case JobType::kChaos:
      ss << " --chaos " << spec.chaos_schedules << " --chaos-seed "
         << spec.chaos_seed << " --cycles " << effective_cycles(spec, opts)
         << " --jobs 1";
      break;
  }
  if (opts.base_seed != 42) ss << " --seed " << opts.base_seed;
  return ss.str();
}

std::string JobBatchReport::to_json() const {
  std::ostringstream ss;
  ss << "{\"job_batch\":{\"total\":" << total << ",\"ok\":" << ok
     << ",\"failed\":" << failed << ",\"quarantined\":" << quarantined
     << ",\"pending\":" << pending << ",\"interrupted\":"
     << (interrupted ? "true" : "false") << ",\"jobs\":[\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].json.empty()) {
      ss << jobs[i].json;
    } else {
      ss << "{\"job\":" << jobs[i].index << ",\"status\":\"pending\"}";
    }
    ss << (i + 1 < jobs.size() ? ",\n" : "\n");
  }
  ss << "]}}\n";
  return ss.str();
}

int JobBatchReport::exit_code() const {
  if (interrupted) return 6;
  if (quarantined > 0) return 9;
  for (const JobResult& r : jobs) {
    if (r.status == JobStatus::kFailed &&
        r.error_kind == "deadline-exceeded") {
      return 7;
    }
  }
  for (const JobResult& r : jobs) {
    if (r.status == JobStatus::kFailed && r.error_kind == "budget-exceeded") {
      return 8;
    }
  }
  return failed > 0 ? 1 : 0;
}

JobManager::JobManager(JobManagerOptions opts) : opts_(std::move(opts)) {
  SIM_CHECK(!opts_.manifest_path.empty(),
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "JobManagerOptions::manifest_path is required"));
  SIM_CHECK(opts_.jobs >= 0,
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "jobs must be 0 (= hardware concurrency) or positive")
                .detail("jobs", opts_.jobs));
  SIM_CHECK(opts_.max_retries >= 0,
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "max_retries must be non-negative")
                .detail("max_retries", opts_.max_retries));
  SIM_CHECK(opts_.quarantine_after >= 1,
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "quarantine_after must be at least 1")
                .detail("quarantine_after", opts_.quarantine_after));
  if (opts_.snapshot_dir.empty()) {
    opts_.snapshot_dir = opts_.manifest_path + ".snaps";
  }
}

JobBatchReport JobManager::run(const std::vector<JobSpec>& specs) {
  SIM_CHECK(!specs.empty(),
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "job batch is empty"));
  {
    std::ifstream probe(opts_.manifest_path, std::ios::binary);
    const bool nonempty =
        probe && probe.seekg(0, std::ios::end) && probe.tellg() > 0;
    SIM_CHECK(!nonempty,
              SimError(SimErrorKind::kHarness, "harness.jobs",
                       "manifest already exists — resume it "
                       "(--jobs-resume) or remove it first")
                  .detail("path", opts_.manifest_path));
  }
  torn_lines_skipped_ = 0;
  Ledger manifest(opts_.manifest_path, "harness.jobs",
                  [](const std::string&) { return false; });
  // "build" is informational (resume never rejects on it): it lets a
  // triage session tell whether a manifest was produced by this binary.
  std::ostringstream header;
  header << "{\"gpusim_jobs\":" << kJobsManifestSchema
         << ",\"total\":" << specs.size()
         << ",\"base_seed\":" << opts_.base_seed
         << ",\"default_cycles\":" << opts_.default_cycles
         << ",\"build\":" << build_fingerprint() << "}";
  manifest.append(header.str());
  for (const JobSpec& spec : specs) {
    manifest.append("{\"job\":" + std::to_string(spec.index) + ",\"spec\":\"" +
                    json_escape(spec.raw) + "\"}");
  }
  std::vector<JobResult> seeded(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    seeded[i].index = specs[i].index;
    seeded[i].spec_raw = specs[i].raw;
  }
  return execute(specs, std::move(seeded), manifest);
}

JobBatchReport JobManager::resume() {
  torn_lines_skipped_ = 0;
  SIM_CHECK(std::ifstream(opts_.manifest_path).good(),
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "cannot open manifest to resume")
                .detail("path", opts_.manifest_path));

  const auto no_header = [&]() {
    return SimError(SimErrorKind::kHarness, "harness.jobs",
                    "manifest has no header — not a gpusim jobs manifest")
        .detail("path", opts_.manifest_path);
  };
  u64 total = 0;
  bool have_header = false;
  std::map<u64, std::string> spec_lines;    // job index -> raw spec
  std::map<u64, std::string> result_lines;  // job index -> stored line
  Ledger manifest(
      opts_.manifest_path, "harness.jobs", [&](const std::string& line) {
        if (!have_header) {
          // Refuse a foreign file before the ledger appends to it.
          SIM_CHECK(line.rfind("{\"gpusim_jobs\":", 0) == 0, no_header());
          const auto n = json_u64_field(line, "total");
          SIM_CHECK(n && *n > 0,
                    SimError(SimErrorKind::kHarness, "harness.jobs",
                             "manifest header has no job count")
                        .detail("path", opts_.manifest_path));
          total = *n;
          have_header = true;
          return true;
        }
        const auto index = json_u64_field(line, "job");
        if (!index) return false;
        if (const auto spec = json_string_field(line, "spec")) {
          spec_lines[*index] = *spec;
          return true;
        }
        if (!terminal_status(
                json_string_field(line, "status").value_or(""))) {
          return false;
        }
        result_lines[*index] = line;  // last line for a job wins
        return true;
      });
  torn_lines_skipped_ = manifest.torn_lines();
  SIM_CHECK(have_header, no_header());
  SIM_CHECK(spec_lines.size() == total,
            SimError(SimErrorKind::kHarness, "harness.jobs",
                     "manifest is missing job spec lines")
                .detail("expected", total)
                .detail("found", spec_lines.size()));

  std::vector<JobSpec> specs;
  std::vector<JobResult> seeded(total);
  specs.reserve(total);
  for (u64 i = 0; i < total; ++i) {
    const auto it = spec_lines.find(i);
    SIM_CHECK(it != spec_lines.end(),
              SimError(SimErrorKind::kHarness, "harness.jobs",
                       "manifest spec lines are not a contiguous 0..total-1")
                  .detail("missing_job", i));
    specs.push_back(JobSpec::parse(it->second, static_cast<int>(i)));
    JobResult& r = seeded[i];
    r.index = static_cast<int>(i);
    r.spec_raw = it->second;
    const auto rit = result_lines.find(i);
    if (rit == result_lines.end()) continue;
    const std::string& stored = rit->second;
    r.status = *terminal_status(*json_string_field(stored, "status"));
    r.attempts =
        static_cast<int>(json_u64_field(stored, "attempts").value_or(0));
    r.telemetry_dir = json_string_field(stored, "telemetry_dir").value_or("");
    if (r.status != JobStatus::kOk) {
      r.error_kind = json_string_field(stored, "error_kind").value_or("");
      r.error_component =
          json_string_field(stored, "error_component").value_or("");
      r.error_message = json_string_field(stored, "error_message").value_or("");
      r.reproducer = json_string_field(stored, "reproducer").value_or("");
    }
    r.json = stored;  // replayed verbatim → byte-identical final report
    r.from_manifest = true;
  }
  return execute(specs, std::move(seeded), manifest);
}

JobBatchReport JobManager::execute(const std::vector<JobSpec>& specs,
                                   std::vector<JobResult> seeded,
                                   Ledger& manifest) {
  const std::size_t n = specs.size();

  // Determinism under parallelism: jobs sharing a config key run in index
  // order (a later one waits until every earlier same-key job is terminal),
  // so the circuit breaker sees the same failure sequence for every worker
  // count.  Deadlock-free because run_indexed claims indices monotonically:
  // the lowest in-flight index only waits on already-terminal jobs.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> keys(n);
  std::vector<bool> terminal(n, false);
  std::map<std::string, std::vector<std::size_t>> key_jobs;
  std::map<std::string, int> consecutive_failures;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = specs[i].config_key();
    key_jobs[keys[i]].push_back(i);
    if (seeded[i].status != JobStatus::kPending) {
      terminal[i] = true;
      // Replay the breaker's state transitions from the stored outcomes, in
      // index order, so a resumed batch quarantines exactly what a fresh
      // uninterrupted one would.
      int& count = consecutive_failures[keys[i]];
      if (seeded[i].status == JobStatus::kOk) {
        count = 0;
      } else if (seeded[i].status == JobStatus::kFailed) {
        ++count;
      }  // quarantined: the count already sits at/over the limit; keep it
    } else {
      pending.push_back(i);
    }
  }

  std::atomic<bool> abort{false};
  auto request_abort = [&]() {
    abort.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  };
  auto cancelled = [&]() {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
  };

  run_indexed(
      pending.size(), opts_.jobs,
      [&](int, std::size_t k) {
        const std::size_t i = pending[k];
        const JobSpec& spec = specs[i];
        const std::string& key = keys[i];

        // Wait for earlier same-key jobs (abort releases all waiters).
        {
          std::unique_lock<std::mutex> lock(mu);
          const std::vector<std::size_t>& peers = key_jobs[key];
          cv.wait(lock, [&]() {
            if (abort.load(std::memory_order_relaxed)) return true;
            for (const std::size_t p : peers) {
              if (p >= i) break;
              if (!terminal[p]) return false;
            }
            return true;
          });
          if (abort.load(std::memory_order_relaxed)) return;
        }
        if (cancelled()) {
          request_abort();
          return;
        }

        JobResult r;
        r.index = spec.index;
        r.spec_raw = spec.raw;

        // Circuit breaker: refuse a key that is already failing in a loop.
        {
          std::lock_guard<std::mutex> lock(mu);
          if (consecutive_failures[key] >= opts_.quarantine_after) {
            r.status = JobStatus::kQuarantined;
            r.error_kind = to_string(SimErrorKind::kQuarantined);
            r.error_component = "harness.jobs";
            r.error_message =
                "config quarantined after " +
                std::to_string(opts_.quarantine_after) +
                " consecutive failures";
            r.reproducer = job_reproducer_command(spec, opts_);
            r.json = result_line(r);
            terminal[i] = true;
            cv.notify_all();
          }
        }
        if (r.status == JobStatus::kQuarantined) {
          if (opts_.verbose) {
            std::fprintf(stderr, "gpusim: job %d quarantined (%s)\n",
                         spec.index, spec.raw.c_str());
          }
          manifest.append(r.json);
          seeded[i] = std::move(r);
          return;
        }

        // Quarantined jobs never ran, so they carry no telemetry paths;
        // everything past this point flushes files (even on a crash).
        if (!opts_.telemetry_dir.empty()) {
          r.telemetry_dir = job_telemetry_dir(opts_, spec.index);
        }

        // Attempt loop under the shared RetryPolicy: transient failures
        // retry with exponential backoff plus deterministic jitter;
        // everything else fails fast.
        const RetryPolicy retry{1 + effective_retries(spec, opts_),
                                opts_.backoff_base_ms};
        const double deadline_ms = effective_deadline_ms(spec, opts_);
        for (int attempt = 1;; ++attempt) {
          if (cancelled()) {
            request_abort();
            return;  // job stays pending; a resume re-runs it
          }
          r.attempts = attempt;
          std::chrono::steady_clock::time_point deadline{};
          if (deadline_ms > 0.0) {
            deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(
                           static_cast<long long>(deadline_ms * 1000.0));
          }
          try {
            r.payload_json = dispatch_job(spec, opts_, deadline);
            r.status = JobStatus::kOk;
            r.error_kind.clear();
            r.error_component.clear();
            r.error_message.clear();
            break;
          } catch (const SimError& e) {
            if (e.kind() == SimErrorKind::kInterrupted) {
              request_abort();
              return;  // drain: pending, not an attempt spent
            }
            // Identity only — what() carries cycle counts and elapsed
            // times that differ run to run and would break byte-identical
            // resume of the final report.
            r.error_kind = to_string(e.kind());
            r.error_component = e.component();
            r.error_message = e.message();
            if (!retry.retry_after(i, attempt, e)) break;
          } catch (const std::exception& e) {
            r.error_kind = "exception";
            r.error_component = "harness.jobs";
            r.error_message = e.what();
            if (!retry.retry_after(i, attempt, e)) break;
          }
        }
        if (r.status != JobStatus::kOk) r.status = JobStatus::kFailed;
        if (r.status == JobStatus::kFailed) {
          r.reproducer = job_reproducer_command(spec, opts_);
        }
        r.json = result_line(r);

        {
          std::lock_guard<std::mutex> lock(mu);
          int& count = consecutive_failures[key];
          if (r.status == JobStatus::kOk) {
            count = 0;
          } else {
            ++count;
          }
          terminal[i] = true;
          cv.notify_all();
        }
        if (opts_.verbose) {
          std::fprintf(stderr, "gpusim: job %d %s after %d attempt%s (%s)\n",
                       spec.index, to_string(r.status), r.attempts,
                       r.attempts == 1 ? "" : "s", spec.raw.c_str());
        }
        manifest.append(r.json);
        seeded[i] = std::move(r);
      },
      &abort);

  JobBatchReport report;
  report.total = static_cast<int>(n);
  report.jobs = std::move(seeded);
  for (const JobResult& r : report.jobs) {
    switch (r.status) {
      case JobStatus::kOk: ++report.ok; break;
      case JobStatus::kFailed: ++report.failed; break;
      case JobStatus::kQuarantined: ++report.quarantined; break;
      case JobStatus::kPending: ++report.pending; break;
    }
  }
  report.interrupted = report.pending > 0;
  return report;
}

}  // namespace gpusim
