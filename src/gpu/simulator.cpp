#include "gpu/simulator.hpp"

#include <algorithm>

#include "common/sim_error.hpp"

namespace gpusim {

namespace {
/// How often the watchdog samples the progress counters.  Sampling is a
/// handful of counter reads, so a fine period keeps detection latency low
/// without measurable overhead.
constexpr Cycle kWatchdogCheckPeriod = 1024;
}  // namespace

void Simulation::advance(Cycle cycles, AppId until_app,
                         u64 until_instructions) {
  if (next_interval_end_ == 0) {
    next_interval_end_ = gpu_.now() + interval_length_;
  }
  // A cycle budget clips the requested stop: the run advances to the budget
  // boundary (keeping interval/watchdog bookkeeping exact up to it) and the
  // overrun is reported as a typed error *after* the loop, so the state at
  // the throw point is a valid simulation state at exactly budget cycles.
  const Cycle requested_stop = gpu_.now() + cycles;
  const bool budget_clips =
      cycle_budget_ != 0 && requested_stop > cycle_budget_;
  const Cycle stop =
      budget_clips ? std::max(gpu_.now(), cycle_budget_) : requested_stop;
  const bool watchdog_on = watchdog_cycles_ != 0;
  const bool limits_on = limits_armed();
  // The per-app instruction counter is exact between any two cycles under
  // either engine: the activity engine adds each instruction of an SM
  // asleep in a compute run to it in the cycle the walk would issue it.
  const auto reached = [&] {
    return until_app != kInvalidApp &&
           gpu_.instructions().total(until_app) >= until_instructions;
  };

  // The loop advances in *chunks* bounded by the next cycle at which
  // per-chunk bookkeeping (interval boundary, watchdog sampling point) is
  // due, so the inner loop carries no watchdog modulo.  Chunking changes no
  // observable behaviour: intervals fire at the same cycles as per-cycle
  // checks would, and the watchdog still samples at every multiple of
  // kWatchdogCheckPeriod.
  while (gpu_.now() < stop && !reached()) {
    Cycle chunk_end = std::min(stop, next_interval_end_);
    if (watchdog_on || limits_on) {
      const Cycle wd_next =
          (gpu_.now() / kWatchdogCheckPeriod + 1) * kWatchdogCheckPeriod;
      chunk_end = std::min(chunk_end, wd_next);
    }
    while (gpu_.now() < chunk_end && !reached()) {
      for (CycleHook* hook : cycle_hooks_) hook->on_cycle(gpu_.now(), gpu_);
      gpu_.cycle();
    }
    maybe_fire_interval();
    if (gpu_.now() % kWatchdogCheckPeriod == 0) {
      if (watchdog_on) check_watchdog();
      if (limits_on) check_limits();
    }
  }
  // Counters read after a run must be current: settle what the activity
  // engine still owes its sleeping components.
  gpu_.sync_for_observation();
  // At least one limit check per run() call, so short runs (and the final
  // partial chunk) cannot outrun a tripped limit.
  if (limits_on) check_limits();
  if (budget_clips && !reached()) {
    SIM_FAIL(SimError(SimErrorKind::kBudgetExceeded, "gpu.simulation",
                      "cycle budget exhausted before the requested run "
                      "length completed")
                 .cycle(gpu_.now())
                 .detail("cycle_budget", cycle_budget_)
                 .detail("requested_stop", requested_stop));
  }
}

bool Simulation::run_until_instructions(AppId app, u64 target,
                                        Cycle max_cycles) {
  advance(max_cycles, app, target);
  return gpu_.instructions().total(app) >= target;
}

void Simulation::maybe_fire_interval() {
  if (gpu_.now() < next_interval_end_) return;
  ProfScope prof(profiler_, LoopProfiler::kIntervalBookkeeping);
  const IntervalSample sample = gpu_.end_interval();
  ++intervals_completed_;
  for (IntervalObserver* obs : observers_) obs->on_interval(sample, gpu_);
  next_interval_end_ = gpu_.now() + interval_length_;
}

u64 Simulation::total_requests_served() const {
  u64 served = 0;
  for (int p = 0; p < gpu_.num_partitions(); ++p) {
    served += gpu_.partition(p).mc().counters().requests_served.grand_total();
  }
  return served;
}

void Simulation::check_limits() {
  // Order matters: an operator interrupt beats a deadline beats a budget —
  // the most externally-driven condition wins so a drain is reported as a
  // drain even when a deadline lapsed while the drain was pending.
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    SIM_FAIL(SimError(SimErrorKind::kInterrupted, "gpu.simulation",
                      "cooperative cancellation requested — state is "
                      "intact and snapshot-able at this cycle")
                 .cycle(gpu_.now()));
  }
  if (wall_deadline_ != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    SIM_FAIL(SimError(SimErrorKind::kDeadlineExceeded, "gpu.simulation",
                      "wall-clock deadline passed mid-simulation")
                 .cycle(gpu_.now()));
  }
  if (mem_budget_ != 0) {
    const u64 served = total_requests_served();
    if (served > mem_budget_) {
      SIM_FAIL(SimError(SimErrorKind::kBudgetExceeded, "gpu.simulation",
                        "memory-traffic budget exhausted")
                   .cycle(gpu_.now())
                   .detail("mem_budget", mem_budget_)
                   .detail("requests_served", served));
    }
  }
}

u64 Simulation::progress_signature() const {
  // Any retired instruction or served DRAM request counts as progress; a
  // co-run mid-drain retires nothing for a while but its DRAM still moves.
  u64 sig = gpu_.instructions().grand_total();
  for (int p = 0; p < gpu_.num_partitions(); ++p) {
    sig += gpu_.partition(p).mc().counters().requests_served.grand_total();
  }
  return sig;
}

void Simulation::check_watchdog() {
  const u64 sig = progress_signature();
  if (sig != last_progress_sig_) {
    last_progress_sig_ = sig;
    last_progress_cycle_ = gpu_.now();
    return;
  }
  if (gpu_.now() - last_progress_cycle_ < watchdog_cycles_) return;
  // Zero progress for the full threshold.  An intentionally idle GPU
  // (every SM released, nothing in flight) is not a deadlock.
  if (gpu_.memory_system_quiescent()) {
    bool any_live = false;
    for (int s = 0; s < gpu_.num_sms() && !any_live; ++s) {
      any_live = gpu_.sm(s).live_warps() > 0;
    }
    if (!any_live) return;
  }
  SIM_FAIL(SimError(SimErrorKind::kWatchdogStall, "gpu.simulation",
                    "no instruction retired and no DRAM request served — "
                    "deadlock or livelock")
               .cycle(gpu_.now())
               .detail("stalled_for_cycles", gpu_.now() - last_progress_cycle_)
               .detail("watchdog_threshold", watchdog_cycles_)
               .detail("pipeline_state", gpu_.dump_state()));
}

void Simulation::save(StateWriter& w) const {
  w.put_tag("SIM ");
  gpu_.save(w);
  w.put_u64(next_interval_end_);
  w.put_u64(intervals_completed_);
  w.put_u64(last_progress_cycle_);
  w.put_u64(last_progress_sig_);
  w.put_u64(observers_.size());
  for (const IntervalObserver* obs : observers_) obs->save_state(w);
  w.put_u64(cycle_hooks_.size());
  for (const CycleHook* hook : cycle_hooks_) hook->save_state(w);
}

void Simulation::load(StateReader& r) {
  r.expect_tag("SIM ");
  gpu_.load(r);
  next_interval_end_ = r.get_u64();
  intervals_completed_ = r.get_u64();
  last_progress_cycle_ = r.get_u64();
  last_progress_sig_ = r.get_u64();
  const u64 n_obs = r.get_u64();
  SIM_CHECK(n_obs == observers_.size(),
            SimError(SimErrorKind::kSnapshot, "gpu.simulation",
                     "snapshot observer count does not match this simulation "
                     "(register the same models before restoring)")
                .detail("snapshot_observers", n_obs)
                .detail("registered_observers", observers_.size()));
  for (IntervalObserver* obs : observers_) obs->load_state(r);
  const u64 n_hooks = r.get_u64();
  SIM_CHECK(n_hooks == cycle_hooks_.size(),
            SimError(SimErrorKind::kSnapshot, "gpu.simulation",
                     "snapshot cycle-hook count does not match this "
                     "simulation")
                .detail("snapshot_hooks", n_hooks)
                .detail("registered_hooks", cycle_hooks_.size()));
  for (CycleHook* hook : cycle_hooks_) hook->load_state(r);
}

std::vector<u8> Simulation::snapshot() const {
  StateWriter w;
  save(w);
  return w.take();
}

void Simulation::restore(const std::vector<u8>& bytes) {
  StateReader r(bytes);
  load(r);
  r.require_end();
}

u64 Simulation::state_hash() const {
  Hasher h;
  h.put_tag("SIM ");
  gpu_.hash(h);
  h.put_u64(next_interval_end_);
  h.put_u64(intervals_completed_);
  h.put_u64(last_progress_cycle_);
  h.put_u64(last_progress_sig_);
  h.put_u64(observers_.size());
  for (const IntervalObserver* obs : observers_) obs->hash_state(h);
  h.put_u64(cycle_hooks_.size());
  for (const CycleHook* hook : cycle_hooks_) hook->hash_state(h);
  return h.digest();
}

std::vector<std::pair<std::string, u64>> Simulation::component_hashes()
    const {
  std::vector<std::pair<std::string, u64>> out = gpu_.component_hashes();
  {
    Hasher h;
    h.put_u64(next_interval_end_);
    h.put_u64(intervals_completed_);
    h.put_u64(last_progress_cycle_);
    h.put_u64(last_progress_sig_);
    out.emplace_back("sim.intervals", h.digest());
  }
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    Hasher h;
    observers_[i]->hash_state(h);
    out.emplace_back("observer[" + std::to_string(i) + "]", h.digest());
  }
  for (std::size_t i = 0; i < cycle_hooks_.size(); ++i) {
    Hasher h;
    cycle_hooks_[i]->hash_state(h);
    out.emplace_back("cycle_hook[" + std::to_string(i) + "]", h.digest());
  }
  return out;
}

}  // namespace gpusim
