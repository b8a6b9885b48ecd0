#include "sched/governor.hpp"

#include <algorithm>
#include <sstream>

#include "common/sim_error.hpp"
#include "sm/sm_core.hpp"

namespace gpusim {

GovernorOptions GovernorOptions::from_config(const GpuConfig& cfg,
                                             bool enabled_flag) {
  GovernorOptions o;
  o.enabled = enabled_flag;
  o.num_sms = cfg.num_sms;
  o.drain_budget = cfg.governor_drain_budget;
  o.max_delta = cfg.governor_max_delta;
  o.starvation_window = cfg.governor_starvation_window;
  o.thrash_window = cfg.governor_thrash_window;
  o.breaker_trips = cfg.governor_breaker_trips;
  o.jump_bound = cfg.governor_jump_bound;
  o.force_preempt = cfg.governor_force_preempt;
  return o;
}

PolicyGovernor::PolicyGovernor(GovernorOptions options,
                               const SlowdownEstimator* estimator)
    : options_(options), estimator_(estimator) {}

bool PolicyGovernor::propose_partition(Gpu& gpu,
                                       const std::vector<AppId>& desired) {
  if (!options_.enabled) {
    gpu.set_partition(desired);
    return true;
  }
  FlightRecorder& rec = gpu.flight_recorder();
  if (fell_back_even_) {
    rec.record(gpu.now(), FrEvent::kGovProposalRejected, -1, -1,
               static_cast<u64>(GovernorReject::kFellBackEven), epoch_);
    ++rejects_;
    return false;
  }
  if (epoch_ < frozen_until_epoch_) {
    rec.record(gpu.now(), FrEvent::kGovProposalRejected, -1, -1,
               static_cast<u64>(GovernorReject::kBreakerFrozen), epoch_);
    ++rejects_;
    return false;
  }
  std::vector<AppId> clamped = desired;
  validate_and_clamp(gpu, clamped);
  if (clamped == gpu.desired_partition()) return false;  // clamped to a no-op

  if (low_confidence(gpu)) {
    ++holds_;
    return false;  // hold the last-good (= current) partition
  }

  // Thrash detection: the proposal undoes the previous migration
  // (A -> B -> A) within the flap window.
  if (!prev2_.empty() && clamped == prev2_ && clamped != prev1_) {
    if (epoch_ <= last_flap_epoch_ + static_cast<u64>(options_.thrash_window)) {
      ++flap_count_;
    } else {
      flap_count_ = 1;
    }
    last_flap_epoch_ = epoch_;
    if (flap_count_ >= 2) {
      flap_count_ = 0;
      trip_breaker(gpu, kInvalidApp);
      return false;
    }
  }

  gpu.set_partition(clamped);
  migration_seen_ = true;
  migration_start_cycle_ = gpu.now();
  prev2_ = std::move(prev1_);
  prev1_ = std::move(clamped);
  return true;
}

bool PolicyGovernor::validate_and_clamp(Gpu& gpu,
                                        std::vector<AppId>& partition) {
  const int num_sms = gpu.num_sms();
  const int num_apps = gpu.num_apps();
  SIM_CHECK(static_cast<int>(partition.size()) == num_sms,
            SimError(SimErrorKind::kInvariant, "sched.governor",
                     "proposed partition must name one owner per SM")
                .cycle(gpu.now())
                .detail("proposed", partition.size())
                .detail("num_sms", num_sms));
  for (const AppId a : partition) {
    SIM_CHECK(a >= 0 && a < num_apps,
              SimError(SimErrorKind::kInvariant, "sched.governor",
                       "proposed partition names an unknown application "
                       "or leaves an SM unowned")
                  .cycle(gpu.now())
                  .app(a)
                  .detail("num_apps", num_apps));
  }
  SIM_CHECK(num_apps * options_.min_sms_per_app <= num_sms,
            SimError(SimErrorKind::kInvariant, "sched.governor",
                     "min-SM floor is infeasible for this many applications")
                .detail("num_apps", num_apps)
                .detail("min_sms_per_app", options_.min_sms_per_app)
                .detail("num_sms", num_sms));

  // Clamp relative to the partition the GPU is already converging to (the
  // desired one): with a drain still pending, bounding against the stale
  // SM owners would double-count the in-flight moves.  A forwarded
  // proposal then supersedes the pending migration, exactly as an
  // unguarded Gpu::set_partition call would.
  const std::vector<AppId>& current = gpu.desired_partition();
  std::vector<int> desired_count(num_apps, 0);
  std::vector<int> current_count(num_apps, 0);
  for (const AppId a : partition) ++desired_count[a];
  for (const AppId a : current) {
    if (a != kInvalidApp) ++current_count[a];
  }
  int delta = 0;
  for (int s = 0; s < num_sms; ++s) delta += partition[s] != current[s] ? 1 : 0;

  bool floor_ok = true;
  for (AppId a = 0; a < num_apps; ++a) {
    floor_ok = floor_ok && desired_count[a] >= options_.min_sms_per_app;
  }
  if (floor_ok && delta <= options_.max_delta) return false;  // forward as-is

  // Clamp at the per-app count level, then rebuild the assignment keeping
  // currently owned SMs in place — the same retain-first construction the
  // policies use, so the clamped migration drains no more SMs than needed.
  std::vector<int> counts = desired_count;
  for (AppId poor = 0; poor < num_apps; ++poor) {
    while (counts[poor] < options_.min_sms_per_app) {
      AppId rich = kInvalidApp;
      int rich_count = options_.min_sms_per_app;
      for (AppId a = 0; a < num_apps; ++a) {
        if (a != poor && counts[a] > rich_count) {
          rich = a;
          rich_count = counts[a];
        }
      }
      SIM_CHECK(rich != kInvalidApp,
                SimError(SimErrorKind::kInvariant, "sched.governor",
                         "cannot clamp the proposal up to the min-SM floor")
                    .app(poor)
                    .detail("min_sms_per_app", options_.min_sms_per_app));
      --counts[rich];
      ++counts[poor];
    }
  }
  // Bound the epoch's reassignment: shrink the movement between the current
  // and the clamped counts until at most max_delta SMs change hands.  Each
  // step pulls the largest surplus and the largest deficit one SM closer to
  // the current split, so counts stay between the (floor-satisfying)
  // endpoints throughout.
  auto moves_of = [&]() {
    int m = 0;
    for (AppId a = 0; a < num_apps; ++a) {
      m += std::max(0, counts[a] - current_count[a]);
    }
    return m;
  };
  while (moves_of() > options_.max_delta) {
    AppId grow = kInvalidApp, shrink = kInvalidApp;
    int grow_gap = 0, shrink_gap = 0;
    for (AppId a = 0; a < num_apps; ++a) {
      const int gap = counts[a] - current_count[a];
      if (gap > grow_gap) {
        grow = a;
        grow_gap = gap;
      }
      if (-gap > shrink_gap) {
        shrink = a;
        shrink_gap = -gap;
      }
    }
    if (grow == kInvalidApp || shrink == kInvalidApp) break;
    --counts[grow];
    ++counts[shrink];
  }

  FlightRecorder& rec = gpu.flight_recorder();
  for (AppId a = 0; a < num_apps; ++a) {
    if (counts[a] != desired_count[a]) {
      rec.record(gpu.now(), FrEvent::kGovClamp, -1, a,
                 static_cast<u64>(desired_count[a]),
                 static_cast<u64>(counts[a]));
      ++clamps_;
    }
  }

  // Rebuild: retain up to counts[a] of each app's current SMs, then hand
  // the freed/idle SMs to apps still short (lowest app id first).
  partition = current;
  std::vector<int> need = counts;
  for (AppId& owner : partition) {
    if (owner == kInvalidApp) continue;
    if (need[owner] > 0) {
      --need[owner];
    } else {
      owner = kInvalidApp;
    }
  }
  AppId next = 0;
  for (AppId& owner : partition) {
    if (owner != kInvalidApp) continue;
    while (next < num_apps && need[next] == 0) ++next;
    if (next >= num_apps) break;
    owner = next;
    --need[next];
  }
  return true;
}

bool PolicyGovernor::low_confidence(Gpu& gpu) {
  if (estimator_ == nullptr) return false;
  FlightRecorder& rec = gpu.flight_recorder();
  if (estimator_->sanitized_estimates() != last_sanitized_) {
    rec.record(gpu.now(), FrEvent::kGovLowConfidenceHold, -1, -1,
               static_cast<u64>(GovernorHold::kSanitizedEstimate), epoch_);
    return true;
  }
  if (have_prev_slowdowns_) {
    const std::vector<SlowdownEstimate>& latest = estimator_->latest();
    const std::size_t n = std::min(latest.size(), prev_slowdowns_.size());
    for (std::size_t a = 0; a < n; ++a) {
      if (!latest[a].valid || prev_slowdowns_[a] <= 0.0) continue;
      const double cur = std::max(latest[a].slowdown_all, 1e-9);
      const double prev = prev_slowdowns_[a];
      const double ratio = cur > prev ? cur / prev : prev / cur;
      if (ratio > options_.jump_bound) {
        rec.record(gpu.now(), FrEvent::kGovLowConfidenceHold, -1,
                   static_cast<int>(a),
                   static_cast<u64>(GovernorHold::kEstimateJump), epoch_);
        return true;
      }
    }
  }
  return false;
}

void PolicyGovernor::trip_breaker(Gpu& gpu, AppId starved_app) {
  ++trips_i_;
  ++trips_;
  frozen_until_epoch_ = epoch_ + static_cast<u64>(options_.thrash_window);
  FlightRecorder& rec = gpu.flight_recorder();
  rec.record(gpu.now(), FrEvent::kGovBreakerTrip, -1, starved_app,
             static_cast<u64>(trips_i_), epoch_);
  if (trips_i_ >= options_.breaker_trips && !fell_back_even_) {
    fell_back_even_ = true;
    ++fallbacks_;
    rec.record(gpu.now(), FrEvent::kGovFallbackEven, -1, -1,
               static_cast<u64>(trips_i_), epoch_);
    const std::vector<AppId> even =
        even_partition(gpu.num_sms(), gpu.num_apps());
    if (even != gpu.desired_partition()) {
      // Supersedes any pending migration; the Gpu cancels obsolete drains.
      gpu.set_partition(even);
      migration_seen_ = true;
      migration_start_cycle_ = gpu.now();
      prev2_ = prev1_;
      prev1_ = even;
    }
  }
}

std::string PolicyGovernor::stalled_drain_detail(const Gpu& gpu) const {
  std::ostringstream ss;
  for (int s = 0; s < gpu.num_sms(); ++s) {
    const SmCore& sm = gpu.sm(s);
    if (!sm.draining() || sm.drained()) continue;
    if (ss.tellp() > 0) ss << "\n";
    ss << "sm=" << s << " app=" << sm.app()
       << " live_warps=" << sm.live_warps()
       << " active_blocks=" << sm.active_blocks()
       << " waiting_warps=" << sm.waiting_warps()
       << " out_queue=" << sm.out_queue().size();
  }
  return ss.str();
}

void PolicyGovernor::check_drain_watchdog(Gpu& gpu) {
  if (!gpu.migration_in_progress()) {
    migration_seen_ = false;
    return;
  }
  if (!migration_seen_) {
    // A migration the governor did not forward itself (temporal switch,
    // harness split): stamp its first observation so even external drains
    // are budgeted.
    migration_seen_ = true;
    migration_start_cycle_ = gpu.now();
    return;
  }
  const Cycle pending = gpu.now() - migration_start_cycle_;
  if (pending <= options_.drain_budget) return;
  if (options_.force_preempt) {
    gpu.flight_recorder().record(gpu.now(), FrEvent::kGovMigrationAbort, -1,
                                 -1, pending, options_.drain_budget);
    ++stalls_aborted_;
    // Re-requesting the current owners cancels every outstanding drain:
    // the run continues on the partially migrated partition.
    gpu.set_partition(gpu.current_partition());
    migration_seen_ = false;
    return;
  }
  SIM_FAIL(SimError(SimErrorKind::kMigrationStalled, "sched.governor",
                    "SM-drain migration failed to converge within the "
                    "governor's drain budget")
               .cycle(gpu.now())
               .detail("pending_cycles", pending)
               .detail("drain_budget", options_.drain_budget)
               .detail("stalled_sms", stalled_drain_detail(gpu)));
}

void PolicyGovernor::on_interval(const IntervalSample& sample, Gpu& gpu) {
  (void)sample;
  if (!options_.enabled) return;
  ++epoch_;
  check_drain_watchdog(gpu);

  // Starvation breaker: an app pinned at (or below) the floor for a full
  // sliding window of epochs.
  if (!fell_back_even_ && gpu.num_apps() > 1) {
    for (AppId a = 0; a < gpu.num_apps(); ++a) {
      if (gpu.sms_assigned(a) <= options_.min_sms_per_app) {
        if (++starve_count_[a] >= options_.starvation_window) {
          starve_count_[a] = 0;
          trip_breaker(gpu, a);
        }
      } else {
        starve_count_[a] = 0;
      }
    }
  }

  // The partition is "last-good" once it has settled; low-confidence
  // epochs hold it by not forwarding anything new.
  if (!gpu.migration_in_progress()) {
    last_good_ = gpu.current_partition();
  }

  // Confidence cursors for the next epoch's gate.
  if (estimator_ != nullptr) {
    last_sanitized_ = estimator_->sanitized_estimates();
    const std::vector<SlowdownEstimate>& latest = estimator_->latest();
    prev_slowdowns_.assign(latest.size(), 0.0);
    for (std::size_t a = 0; a < latest.size(); ++a) {
      prev_slowdowns_[a] = latest[a].valid ? latest[a].slowdown_all : 0.0;
    }
    have_prev_slowdowns_ = !latest.empty();
  }
}

void PolicyGovernor::load_state(StateReader& r) {
  r.expect_tag("GOVN");
  epoch_ = r.get_u64();
  migration_seen_ = r.get_bool();
  migration_start_cycle_ = r.get_u64();
  const auto read_partition = [&r](std::vector<AppId>& p, const char* what) {
    p.resize(r.get_count(4096, what));
    for (AppId& a : p) a = r.get_i32();
  };
  read_partition(last_good_, "governor last-good partition");
  read_partition(prev1_, "governor previous partition");
  read_partition(prev2_, "governor older partition");
  flap_count_ = r.get_i32();
  last_flap_epoch_ = r.get_u64();
  for (i32& v : starve_count_) v = r.get_i32();
  trips_i_ = r.get_i32();
  frozen_until_epoch_ = r.get_u64();
  fell_back_even_ = r.get_bool();
  last_sanitized_ = r.get_u64();
  have_prev_slowdowns_ = r.get_bool();
  prev_slowdowns_.resize(
      r.get_count(kMaxApps, "governor previous slowdowns"));
  for (double& v : prev_slowdowns_) v = r.get_double();
  clamps_ = r.get_u64();
  rejects_ = r.get_u64();
  holds_ = r.get_u64();
  trips_ = r.get_u64();
  fallbacks_ = r.get_u64();
  stalls_aborted_ = r.get_u64();
}

}  // namespace gpusim
