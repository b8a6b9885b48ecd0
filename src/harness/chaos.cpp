#include "harness/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "baselines/asm_model.hpp"
#include "baselines/mise_model.hpp"
#include "baselines/priority_epochs.hpp"
#include "common/jsonl.hpp"
#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "dase/dase_model.hpp"
#include "gpu/simulator.hpp"
#include "harness/runner.hpp"
#include "harness/worker_pool.hpp"
#include "sched/dase_fair.hpp"
#include "sched/governor.hpp"

namespace gpusim {

namespace {

std::string first_line(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

/// Per-job schedule seed: a splitmix64 step over the master seed so
/// neighbouring jobs get decorrelated schedules, with no dependence on
/// wall clock or thread identity.
u64 job_schedule_seed(u64 master, std::size_t index) {
  u64 x = master + 0x9e3779b97f4a7c15ull * (static_cast<u64>(index) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

bool outcome_from_string(const std::string& text, ChaosOutcome& out) {
  for (const ChaosOutcome o :
       {ChaosOutcome::kRecovered, ChaosOutcome::kGuardCaught,
        ChaosOutcome::kWrongResult, ChaosOutcome::kHang}) {
    if (text == to_string(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

std::string chaos_job_json(const ChaosJobResult& r) {
  std::ostringstream ss;
  ss << "{\"index\":" << r.index << ",\"workload\":\""
     << json_escape(r.workload) << "\",\"policy\":\"" << r.policy
     << "\",\"schedule\":\"" << json_escape(r.schedule) << "\",\"outcome\":\""
     << to_string(r.outcome) << "\",\"error_kind\":\""
     << json_escape(r.error_kind) << "\",\"detail\":\""
     << json_escape(r.detail) << "\",\"final_cycle\":" << r.final_cycle
     << ",\"retries_issued\":" << r.retries_issued
     << ",\"duplicates_absorbed\":" << r.duplicates_absorbed
     << ",\"sanitized_estimates\":" << r.sanitized_estimates;
  // Only anomalous jobs carry the governor counter, so healthy campaign
  // lines (and old checkpoints) stay byte-identical.
  if (r.governor_interventions != 0) {
    ss << ",\"governor_interventions\":" << r.governor_interventions;
  }
  ss << ",\"minimized_schedule\":\"" << json_escape(r.minimized_schedule)
     << "\",\"minimized_events\":" << r.minimized_events << ",\"replay\":\""
     << json_escape(r.replay) << "\"}";
  return ss.str();
}

/// Inverse of chaos_job_json for a stored checkpoint line, so a resumed
/// job carries every field a fresh one does (the CLI summary prints the
/// workload and replay command of resumed failures too).
ChaosJobResult chaos_job_from_line(const std::string& line, int index,
                                   ChaosOutcome outcome) {
  const auto text = [&](const char* key) {
    return json_string_field(line, key).value_or("");
  };
  const auto count = [&](const char* key) {
    return json_u64_field(line, key).value_or(0);
  };
  ChaosJobResult r;
  r.index = index;
  r.workload = text("workload");
  r.policy = text("policy");
  r.schedule = text("schedule");
  r.outcome = outcome;
  r.error_kind = text("error_kind");
  r.detail = text("detail");
  r.final_cycle = count("final_cycle");
  r.retries_issued = count("retries_issued");
  r.duplicates_absorbed = count("duplicates_absorbed");
  r.sanitized_estimates = count("sanitized_estimates");
  r.governor_interventions = count("governor_interventions");
  r.minimized_schedule = text("minimized_schedule");
  r.minimized_events = count("minimized_events");
  r.replay = text("replay");
  r.from_checkpoint = true;
  r.json = line;
  return r;
}

std::string replay_command(const ChaosOptions& opts, const std::string& label,
                           const std::string& spec, bool dase_fair) {
  std::string apps = label;
  std::replace(apps.begin(), apps.end(), '+', ',');
  std::ostringstream ss;
  ss << "gpusim_cli --apps " << apps << " --cycles " << opts.rc.co_run_cycles;
  if (dase_fair) ss << " --policy dase-fair";
  if (!opts.recovery) ss << " --no-recovery";
  ss << " --fault-schedule '" << spec << "'";
  return ss.str();
}

}  // namespace

const char* to_string(ChaosOutcome outcome) {
  switch (outcome) {
    case ChaosOutcome::kRecovered: return "recovered";
    case ChaosOutcome::kGuardCaught: return "guard-caught";
    case ChaosOutcome::kWrongResult: return "wrong-result";
    case ChaosOutcome::kHang: return "hang";
  }
  return "?";
}

int ChaosReport::count(ChaosOutcome outcome) const {
  int n = 0;
  for (const ChaosJobResult& job : jobs) n += job.outcome == outcome ? 1 : 0;
  return n;
}

std::string ChaosReport::to_json() const {
  std::ostringstream ss;
  ss << "{\"chaos_campaign\":{\"schedules\":" << schedules
     << ",\"seed\":" << seed << ",\"cycles\":" << cycles << ",\"recovery\":"
     << (recovery ? "true" : "false") << ",\"outcomes\":{";
  bool first = true;
  for (const ChaosOutcome o :
       {ChaosOutcome::kRecovered, ChaosOutcome::kGuardCaught,
        ChaosOutcome::kWrongResult, ChaosOutcome::kHang}) {
    if (!first) ss << ",";
    first = false;
    ss << "\"" << to_string(o) << "\":" << count(o);
  }
  ss << "},\"jobs\":[\n";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ss << jobs[i].json << (i + 1 < jobs.size() ? ",\n" : "\n");
  }
  ss << "]}}\n";
  return ss.str();
}

FaultSchedule random_fault_schedule(u64 seed, Cycle cycles,
                                    int num_partitions, int max_events) {
  Rng rng(seed == 0 ? 1 : seed);
  FaultSchedule s;
  s.seed = seed == 0 ? 1 : seed;
  const int parts = std::max(1, num_partitions);
  const Cycle half = std::max<Cycle>(1, cycles / 2);
  const int n = 1 + static_cast<int>(rng.next_below(
                        static_cast<u64>(std::max(1, max_events))));
  for (int i = 0; i < n; ++i) {
    const u64 nth = 50 + rng.next_below(1'500);
    switch (rng.next_below(8)) {
      case 0:
      case 1:
        s.drop_response_nth(nth);
        break;
      case 2:
        s.drop_request_nth(nth);
        break;
      case 3:
        s.nack_response(nth, 50 + rng.next_below(400));
        break;
      case 4:
        s.bit_flip(20 + rng.next_below(400),
                   static_cast<int>(rng.next_below(24)));
        break;
      case 5:
      case 6: {
        // Windowed stall: the partition freezes, then recovers and drains.
        const PartitionId p =
            static_cast<PartitionId>(rng.next_below(parts));
        const Cycle from = 1'000 + rng.next_below(half);
        const Cycle len =
            1'000 + rng.next_below(std::max<Cycle>(1, cycles / 4));
        s.stall_partition(p, from, from + len);
        break;
      }
      default:
        if (rng.next_bool(0.5)) {
          // Rare: a stall that never recovers — the designed hang class.
          s.stall_partition(static_cast<PartitionId>(rng.next_below(parts)),
                            1'000 + rng.next_below(half));
        } else {
          s.drop_response_prob(0.01 + 0.04 * rng.next_double());
        }
        break;
    }
  }
  return s;
}

ChaosJobResult run_chaos_job(const ChaosOptions& opts,
                             const Workload& workload, bool dase_fair,
                             const FaultSchedule& schedule) {
  // Chaos-tune the config so every mechanism fits inside the job budget:
  // the retry timeout small enough that backoff plays out, the estimation
  // interval small enough that estimators see several samples, and the
  // watchdog a fraction of the budget so a wedge is proven, not outwaited.
  RunConfig rc = opts.rc;
  const Cycle cycles = rc.co_run_cycles;
  GpuConfig& cfg = rc.gpu;
  cfg.mshr_retry_enabled = opts.recovery;
  cfg.mshr_retry_timeout = std::max<Cycle>(
      1'000, std::min<Cycle>(cfg.mshr_retry_timeout, cycles / 8));
  cfg.estimation_interval = std::max<Cycle>(
      2'000, std::min<Cycle>(cfg.estimation_interval, cycles / 4));
  // The drain budget must also shrink with the job budget, or a wedged
  // migration would be caught by the generic watchdog before the governor
  // can attribute it (kMigrationStalled names the stalled SMs).
  cfg.governor_drain_budget = std::max<Cycle>(
      cfg.estimation_interval,
      std::min<Cycle>(cfg.governor_drain_budget, cycles / 4));
  rc.watchdog_cycles = std::max<Cycle>(5'000, cycles / 4);
  rc.faults = schedule;
  rc.crash_bundle_mode = "chaos";

  ChaosJobResult r;
  r.workload = workload.label();
  r.policy = dase_fair ? "dase-fair" : "even";
  r.schedule = schedule.to_string();

  // Chaos jobs ride the shared co-run assembly (harness/runner.hpp), so a
  // crash bundle written here replays through the exact observer list and
  // seeds a --triage session will rebuild.
  const ModelSet models{.dase = true, .mise = true, .asm_model = true};
  const PolicyKind policy =
      dase_fair ? PolicyKind::kDaseFair : PolicyKind::kEven;

  CoRunAssembly assembly = assemble_corun(rc, workload, models, policy);
  Simulation& sim = *assembly.sim;
  DaseModel* dase = assembly.dase.get();
  MiseModel* mise = assembly.mise.get();
  AsmModel* asm_model = assembly.asm_model.get();

  auto collect = [&]() {
    r.final_cycle = sim.gpu().now();
    r.retries_issued =
        sim.gpu().conservation_taps().retries_issued.grand_total();
    r.duplicates_absorbed =
        sim.gpu().conservation_taps().duplicates_absorbed.grand_total();
    r.sanitized_estimates = dase->sanitized_estimates() +
                            mise->sanitized_estimates() +
                            asm_model->sanitized_estimates();
    r.governor_interventions = assembly.governor->interventions();
  };

  // Chaos jobs never run alone baselines, so flushed series carry estimate
  // columns but null actual-slowdown/error columns.  The per-job label
  // folds in the schedule seed: unique per campaign job, deterministic for
  // any worker count.
  const std::string telemetry_label = workload.label() + "-" + r.policy +
                                      "-" + std::to_string(schedule.seed);
  const auto fail = [&](const std::exception& e) {
    record_corun_failure(rc, workload, models, policy, nullptr, assembly, e,
                         telemetry_label);
    collect();
  };

  try {
    sim.run(cycles);
  } catch (const SimError& e) {
    // A drain interrupt or a lapsed campaign deadline is about the
    // campaign, not this schedule: it must never be classified as a chaos
    // outcome (the four classes describe the *simulator's* behaviour).
    if (e.kind() == SimErrorKind::kInterrupted ||
        e.kind() == SimErrorKind::kDeadlineExceeded) {
      throw;
    }
    fail(e);
    r.error_kind = to_string(e.kind());
    if (e.kind() == SimErrorKind::kWatchdogStall) {
      r.outcome = ChaosOutcome::kHang;
      r.detail = "watchdog: " + first_line(e.what());
    } else if (e.kind() == SimErrorKind::kMigrationStalled) {
      // The governor's drain watchdog proved the wedge and named the
      // stalled SMs — same class as a generic watchdog hang, better
      // attributed.
      r.outcome = ChaosOutcome::kHang;
      r.detail = "governor: " + first_line(e.what());
    } else {
      r.outcome = ChaosOutcome::kGuardCaught;
      r.detail = std::string(e.component()) + ": " + first_line(e.what());
    }
    return r;
  } catch (const std::exception& e) {
    fail(e);
    r.outcome = ChaosOutcome::kGuardCaught;
    r.error_kind = "exception";
    r.detail = first_line(e.what());
    return r;
  }

  collect();
  if (rc.telemetry.any()) {
    try {
      flush_telemetry(*assembly.telemetry, sim.gpu(),
                      resolve_telemetry_paths(rc.telemetry, telemetry_label),
                      corun_telemetry_context(rc, workload, assembly,
                                              telemetry_label));
    } catch (const SimError& flush_error) {
      std::fprintf(stderr, "gpusim: telemetry flush failed (%s)\n",
                   flush_error.what());
    }
  }

  // A stall-forever event that was already active when the budget ran out
  // is a hang the budget merely outpaced: the wedge never clears, the
  // watchdog just had not accumulated its threshold yet.
  bool stall_forever = false;
  for (const FaultEvent& e : schedule.events) {
    if (e.kind == FaultKind::kStallWindow && e.until == 0 &&
        e.from <= r.final_cycle) {
      stall_forever = true;
    }
  }
  const AuditReport audit = sim.gpu().audit_conservation();
  const int n = static_cast<int>(workload.apps.size());
  bool finite = true;
  for (int a = 0; a < n; ++a) {
    if (!std::isfinite(dase->mean_slowdown(a)) ||
        !std::isfinite(mise->mean_slowdown(a)) ||
        !std::isfinite(asm_model->mean_slowdown(a))) {
      finite = false;
    }
  }

  if (stall_forever) {
    r.outcome = ChaosOutcome::kHang;
    r.detail = "stall-forever fault still active when the cycle budget expired";
  } else if (!audit.ok()) {
    r.outcome = ChaosOutcome::kGuardCaught;
    r.error_kind = to_string(SimErrorKind::kConservation);
    r.detail = "conservation audit imbalance beyond the recovery tolerance";
  } else if (assembly.injector != nullptr &&
             assembly.injector->silently_corrupting()) {
    r.outcome = ChaosOutcome::kWrongResult;
    r.detail = "request misrouted to the wrong partition: results corrupt";
  } else if (!finite) {
    r.outcome = ChaosOutcome::kWrongResult;
    r.detail = "non-finite slowdown estimate escaped the sanitizer";
  } else {
    r.outcome = ChaosOutcome::kRecovered;
    r.detail = "completed: audit balanced, all estimates finite";
  }
  return r;
}

FaultSchedule minimize_failing_schedule(const ChaosOptions& opts,
                                        const Workload& workload,
                                        bool dase_fair,
                                        const FaultSchedule& schedule,
                                        ChaosOutcome failure) {
  // Minimization re-runs the failing job dozens of times; bundling every
  // probe would bury the original bundle (and probe telemetry would
  // overwrite the original job's files), so probes never bundle or flush.
  ChaosOptions probe_opts = opts;
  probe_opts.rc.crash_bundle_dir.clear();
  probe_opts.rc.telemetry.dir.clear();
  FaultSchedule best = schedule;
  bool shrunk = true;
  while (shrunk && best.events.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < best.events.size(); ++i) {
      FaultSchedule cand = best;
      cand.events.erase(cand.events.begin() + static_cast<long>(i));
      const ChaosJobResult probe =
          run_chaos_job(probe_opts, workload, dase_fair, cand);
      if (probe.outcome == failure) {
        best = std::move(cand);
        shrunk = true;
        break;  // rescan from the front of the shrunk schedule
      }
    }
  }
  return best;
}

ChaosReport run_chaos_campaign(const ChaosOptions& opts) {
  SIM_CHECK(opts.schedules >= 1,
            SimError(SimErrorKind::kHarness, "harness.chaos",
                     "schedules must be at least 1")
                .detail("schedules", opts.schedules));
  SIM_CHECK(opts.jobs >= 0,
            SimError(SimErrorKind::kHarness, "harness.chaos",
                     "jobs must be 0 (= hardware concurrency) or positive")
                .detail("jobs", opts.jobs));

  ChaosReport report;
  report.schedules = opts.schedules;
  report.seed = opts.seed;
  report.cycles = opts.rc.co_run_cycles;
  report.recovery = opts.recovery;
  report.jobs.resize(static_cast<std::size_t>(opts.schedules));

  const std::vector<Workload> pairs = all_two_app_workloads();

  // Resume: one complete line per finished job, keyed by index (the last
  // line wins); it is reused verbatim, which keeps interrupted + resumed
  // reports byte-identical to uninterrupted ones.
  Ledger checkpoint(
      opts.checkpoint_path, "harness.chaos", [&](const std::string& line) {
        const auto index = json_u64_field(line, "index");
        ChaosOutcome outcome = ChaosOutcome::kRecovered;
        if (!index || *index >= static_cast<u64>(opts.schedules) ||
            !outcome_from_string(
                json_string_field(line, "outcome").value_or(""), outcome)) {
          return false;
        }
        report.jobs[*index] =
            chaos_job_from_line(line, static_cast<int>(*index), outcome);
        return true;
      });
  report.torn_lines_skipped = checkpoint.torn_lines();
  for (const ChaosJobResult& job : report.jobs) {
    report.resumed += job.from_checkpoint ? 1 : 0;
  }

  // A drain interrupt or a lapsed deadline propagates out of the body
  // uncommitted — the job re-runs on resume — and the pool rethrows the
  // lowest-index one after the join.
  run_indexed(
      static_cast<std::size_t>(opts.schedules), opts.jobs,
      [&](int, std::size_t i) {
        ChaosJobResult& slot = report.jobs[i];
        if (slot.from_checkpoint) return;
        const Workload& workload = pairs[i % pairs.size()];
        const bool dase_fair = (i % 2) == 1;
        const FaultSchedule schedule = random_fault_schedule(
            job_schedule_seed(opts.seed, i), opts.rc.co_run_cycles,
            opts.rc.gpu.num_partitions, opts.max_events);
        ChaosJobResult r = run_chaos_job(opts, workload, dase_fair, schedule);
        r.index = static_cast<int>(i);
        if (opts.minimize && r.outcome != ChaosOutcome::kRecovered) {
          const FaultSchedule minimal = minimize_failing_schedule(
              opts, workload, dase_fair, schedule, r.outcome);
          r.minimized_schedule = minimal.to_string();
          r.minimized_events = minimal.events.size();
        }
        r.replay = replay_command(
            opts, r.workload,
            r.minimized_schedule.empty() ? r.schedule : r.minimized_schedule,
            dase_fair);
        r.json = chaos_job_json(r);
        checkpoint.append(r.json);
        slot = std::move(r);
      },
      opts.rc.cancel);
  return report;
}

}  // namespace gpusim
