#include "gpu/gpu.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace gpusim {

std::vector<AppId> even_partition(int num_sms, int num_apps) {
  SIM_CHECK(num_apps > 0 && num_sms >= num_apps,
            SimError(SimErrorKind::kConfig, "gpu",
                     "even_partition needs at least one SM per application")
                .detail("num_sms", num_sms)
                .detail("num_apps", num_apps));
  std::vector<AppId> out(num_sms, kInvalidApp);
  const int base = num_sms / num_apps;
  const int extra = num_sms % num_apps;
  int sm = 0;
  for (AppId a = 0; a < num_apps; ++a) {
    const int share = base + (a < extra ? 1 : 0);
    for (int k = 0; k < share; ++k) out[sm++] = a;
  }
  return out;
}

Gpu::Gpu(const GpuConfig& cfg, std::vector<AppLaunch> launches)
    : cfg_(cfg),
      address_map_(cfg_),
      req_net_(cfg_.num_sms, cfg_.num_partitions, cfg_.noc_latency,
               cfg_.noc_accepts_per_cycle, cfg_.noc_queue_depth,
               RouteRequestToPartition{}),
      resp_net_(cfg_.num_partitions, cfg_.num_sms, cfg_.noc_latency,
                cfg_.noc_accepts_per_cycle, cfg_.noc_queue_depth,
                RouteResponseToSm{}),
      desired_partition_(cfg_.num_sms, kInvalidApp),
      sm_wake_(cfg_.num_sms, 0),
      part_wake_(cfg_.num_partitions, 0),
      sm_synced_(cfg_.num_sms, 0),
      part_synced_(cfg_.num_partitions, 0) {
  cfg_.validate();
  SIM_CHECK(!launches.empty() && static_cast<int>(launches.size()) <= kMaxApps,
            SimError(SimErrorKind::kConfig, "gpu",
                     "application count out of range")
                .detail("launches", launches.size())
                .detail("kMaxApps", kMaxApps));

  recorder_.init(FlightRecorder::kCapacity, cfg_.num_partitions);

  runtimes_.reserve(launches.size());
  for (std::size_t a = 0; a < launches.size(); ++a) {
    // An SM holds a block only when all of its warps get contexts at once.
    const KernelProfile& profile = launches[a].profile;
    SIM_CHECK(profile.warps_per_block > 0 &&
                  profile.warps_per_block <= cfg_.max_warps_per_sm,
              SimError(SimErrorKind::kConfig, "gpu",
                       "a thread block of this application can never be "
                       "resident on an SM")
                  .app(static_cast<AppId>(a))
                  .detail("abbr", profile.abbr)
                  .detail("warps_per_block", profile.warps_per_block)
                  .detail("max_warps_per_sm", cfg_.max_warps_per_sm));
    runtimes_.push_back(std::make_unique<AppRuntime>(
        std::move(launches[a].profile), static_cast<AppId>(a),
        launches[a].seed, launches[a].restart_on_finish));
  }

  sms_.reserve(cfg_.num_sms);
  for (SmId s = 0; s < cfg_.num_sms; ++s) {
    sms_.push_back(std::make_unique<SmCore>(cfg_, s, address_map_));
    sms_.back()->set_instr_sink(&instructions_);
    sms_.back()->set_taps(&taps_);
    sms_.back()->set_flight_recorder(&recorder_);
    sm_out_ptrs_.push_back(&sms_.back()->out_queue());
  }
  partitions_.reserve(cfg_.num_partitions);
  for (PartitionId p = 0; p < cfg_.num_partitions; ++p) {
    partitions_.push_back(
        std::make_unique<MemoryPartition>(cfg_, num_apps(), p));
    partitions_.back()->set_taps(&taps_);
    partitions_.back()->set_flight_recorder(&recorder_);
    part_resp_ptrs_.push_back(&partitions_.back()->resp_queue());
  }
}

void Gpu::set_fault_injector(FaultInjector* injector) {
  if (injector != nullptr) {
    for (const FaultEvent& e : injector->schedule().events) {
      SIM_CHECK(e.kind != FaultKind::kStallWindow ||
                    (e.partition >= 0 && e.partition < cfg_.num_partitions),
                SimError(SimErrorKind::kConfig, "gpu",
                         "fault schedule stalls a nonexistent partition")
                    .detail("partition", e.partition)
                    .detail("num_partitions", cfg_.num_partitions));
    }
  }
  // An injector hooks individual cycles, so the activity engine pins to the
  // per-cycle path while one is attached; settle owed accruals at the
  // transition either way.
  sync_all_to(now_);
  engine_dirty_ = true;
  injector_ = injector;
  for (auto& p : partitions_) p->set_fault_injector(injector);
}

void Gpu::set_activity_sched(bool on) {
  if (activity_sched_ == on) return;
  sync_all_to(now_);
  engine_dirty_ = true;
  activity_sched_ = on;
}

void Gpu::set_partition(const std::vector<AppId>& desired) {
  SIM_CHECK(static_cast<int>(desired.size()) == cfg_.num_sms,
            SimError(SimErrorKind::kHarness, "gpu",
                     "partition request must name one owner per SM")
                .cycle(now_)
                .detail("requested", desired.size())
                .detail("num_sms", cfg_.num_sms));
  for (AppId a : desired) {
    SIM_CHECK(a == kInvalidApp || (a >= 0 && a < num_apps()),
              SimError(SimErrorKind::kHarness, "gpu",
                       "partition request names an unknown application")
                  .cycle(now_)
                  .app(a)
                  .detail("num_apps", num_apps()));
  }
  // Repartitioning reassigns SM owners (which changes whose counters the
  // bulk accruals feed) and starts or cancels drains — settle and
  // invalidate the engine first.
  sync_all_to(now_);
  engine_dirty_ = true;
  u64 changing = 0;
  for (int s = 0; s < cfg_.num_sms; ++s) {
    if (sms_[s]->app() != desired[s]) ++changing;
  }
  if (changing != 0) {
    recorder_.record(now_, FrEvent::kMigrationRequested, -1, -1, changing, 0);
  }
  desired_partition_ = desired;
  if (!migration_pending_) migration_pending_since_ = now_;
  migration_pending_ = true;
  progress_migration(now_);
}

std::vector<AppId> Gpu::current_partition() const {
  std::vector<AppId> out(cfg_.num_sms, kInvalidApp);
  for (int s = 0; s < cfg_.num_sms; ++s) out[s] = sms_[s]->app();
  return out;
}

bool Gpu::migration_in_progress() const { return migration_pending_; }

int Gpu::sms_assigned(AppId app) const {
  int n = 0;
  for (const auto& sm : sms_) n += sm->app() == app ? 1 : 0;
  return n;
}

void Gpu::set_priority_app(AppId app) {
  // The priority app feeds the controllers' per-cycle accounting
  // classification; settle owed bulk accruals under the old priority so a
  // sleeping controller's skip window never straddles the flip.  It also
  // decides which queued commands may issue, so a controller that slept
  // because none could must be visited again.
  sync_all_to(now_);
  engine_dirty_ = true;
  for (auto& p : partitions_) p->mc().set_priority_app(app);
}

void Gpu::progress_migration(Cycle first_cycle) {
  // Starting a drain leaves a sleeping SM quiet (it only stops refills),
  // and a draining SM's state is frozen while it sleeps, so drained()
  // reads the same under either engine.  A handed-over SM must run its
  // new blocks, so it is due at `first_cycle`.  Drains are only cancelled
  // from set_partition, which has already dirtied the engine.
  const bool was_pending = migration_pending_;
  bool pending = false;
  for (int s = 0; s < cfg_.num_sms; ++s) {
    SmCore& sm = *sms_[s];
    const AppId want = desired_partition_[s];
    if (sm.app() == want) {
      // Matching owner again: cancel any drain from a superseded request.
      if (sm.draining() && want != kInvalidApp && sm.assigned()) {
        sm.cancel_drain();
      }
      continue;
    }
    if (sm.assigned()) {
      if (!sm.draining()) sm.start_drain();
      if (!sm.drained()) {
        pending = true;
        continue;
      }
    }
    // Owed accruals up to the handover belong to the old owner (an SM
    // usually empties in its own cycle, leaving nothing owed).
    sync_sm_to(s, first_cycle);
    const AppId old_owner = sm.app();
    if (sm.assigned()) sm.release();
    recorder_.record(now_, FrEvent::kMigrationHandover, s, want,
                     old_owner == kInvalidApp
                         ? 0
                         : static_cast<u64>(old_owner) + 1,
                     0);
    if (want != kInvalidApp) {
      sm.assign(runtimes_[want].get(), now_);
    }
    sm_wake_[s] = first_cycle;
  }
  migration_pending_ = pending;
  if (was_pending && !pending) {
    recorder_.record(now_, FrEvent::kMigrationComplete, -1, -1, 0, 0);
  }
}

void Gpu::cycle() {
  if (engine_enabled()) {
    if (engine_dirty_) rebuild_engine_state();
    cycle_engine();
  } else {
    cycle_full();
  }
}

void Gpu::sync_sm_to(int s, Cycle target) {
  const Cycle from = sm_synced_[s];
  if (from >= target) return;
  const Cycle n = target - from;
  sms_[s]->skip_cycles(n);
  const AppId app = sms_[s]->app();
  if (app != kInvalidApp) sm_cycles_.add(app, n);
  sm_synced_[s] = target;
}

void Gpu::sync_partition_to(int p, Cycle target) {
  const Cycle from = part_synced_[p];
  if (from >= target) return;
  partitions_[p]->mc().skip_cycles(from, target - from);
  part_synced_[p] = target;
}

void Gpu::sync_all_to(Cycle target) {
  for (int s = 0; s < cfg_.num_sms; ++s) sync_sm_to(s, target);
  for (int p = 0; p < cfg_.num_partitions; ++p) sync_partition_to(p, target);
}

void Gpu::rebuild_engine_state() {
  // Wake everything for the next cycle; components re-earn their sleep from
  // live quiet_at() probes.  The synced cursors stay valid across a rebuild
  // (every dirtying mutator settles them first; SIM_INVARIANT guards the
  // contract), so no accrual is lost or doubled here.
  req_src_mask_ = 0;
  for (int s = 0; s < cfg_.num_sms; ++s) {
    SIM_INVARIANT(sm_synced_[s] == now_, "gpu.engine",
                  "engine rebuild with unsettled SM accruals");
    sm_wake_[s] = now_;
    if (!sms_[s]->out_queue().empty()) req_src_mask_ |= u64{1} << s;
  }
  resp_due_ = kNeverCycle;
  for (int p = 0; p < cfg_.num_partitions; ++p) {
    SIM_INVARIANT(part_synced_[p] == now_, "gpu.engine",
                  "engine rebuild with unsettled partition accruals");
    part_wake_[p] = now_;
    const BoundedQueue<MemResponsePacket>& q = *part_resp_ptrs_[p];
    if (!q.empty() && q.front().ready < resp_due_) resp_due_ = q.front().ready;
  }
  compute_sleep_mask_ = 0;
  compute_sleepers_.fill(0);
  engine_dirty_ = false;
}

void Gpu::cycle_engine() {
  // Same phase order as cycle_full(), with the injector hooks compiled out
  // (engine_enabled() excludes an injector) and every phase gated on
  // tracked activity.  A component skipped here is provably quiet or in a
  // compute run: its cycle() would only have accrued counters or issued
  // compute instructions of one warp, which sync_*_to() applies in one
  // lump when it wakes.

  // 1. SMs due this cycle: settle owed accruals, deliver matured responses,
  //    advance, then re-arm the wake cycle.
  u64 started_compute = 0;
  for (int s = 0; s < cfg_.num_sms; ++s) {
    if (sm_wake_[s] > now_) continue;
    const u64 bit = u64{1} << s;
    SmCore& sm = *sms_[s];
    if ((compute_sleep_mask_ & bit) != 0) {
      compute_sleep_mask_ &= ~bit;
      --compute_sleepers_[sm.app()];
    }
    sync_sm_to(s, now_);
    auto& rq = resp_net_.dest_queue(s);
    if (!rq.empty() && rq.front().ready <= now_) {
      ProfScope prof(profiler_, LoopProfiler::kRespDelivery, 0);
      u64 delivered = 0;
      while (!rq.empty() && rq.front().ready <= now_) {
        MemResponsePacket resp = rq.pop();
        taps_.responses_delivered.add(resp.app);
        sm.receive(resp);
        ++delivered;
      }
      prof.set_visits(delivered);
    }
    {
      ProfScope prof(profiler_, LoopProfiler::kSmAdvance);
      sm.cycle(now_);
    }
    const AppId app = sm.app();
    if (app != kInvalidApp) sm_cycles_.add(app);
    sm_synced_[s] = now_ + 1;
    // Sleep decision on the post-cycle state: quiet_at() proves every cycle
    // before the next local event or deliverable response a pure-accounting
    // no-op, and compute_run() bounds the cycles that only issue compute
    // instructions of the greedy warp.  A response accept or an out-queue
    // slot the SM waits for wakes it earlier.
    Cycle wake = now_ + 1;
    if (sm.quiet_at(now_)) {
      wake = std::max(sm.wake_after(rq), now_ + 1);
    } else if (const Cycle run = sm.compute_run(); run != 0) {
      wake = std::max(std::min(now_ + 1 + run, sm.wake_after(rq)), now_ + 1);
      if (wake > now_ + 1) started_compute |= bit;
    }
    sm_wake_[s] = wake;
    // Only an SM's own cycle fills its out-queue; the request crossbar
    // clears the bit when it empties the queue.
    if (!sm.out_queue().empty()) req_src_mask_ |= bit;
  }
  // Every SM asleep in a compute run issues one instruction this cycle; the
  // per-app counter takes it now so reached() and cycle hooks read it
  // exactly, and the SM's own counters catch up when it is next synced.
  // SMs whose sleep starts next cycle join afterwards.
  for (int a = 0; a < num_apps(); ++a) {
    if (compute_sleepers_[a] != 0) instructions_.add(a, compute_sleepers_[a]);
  }
  for (u64 m = started_compute; m != 0; m &= m - 1) {
    ++compute_sleepers_[sms_[std::countr_zero(m)]->app()];
  }
  compute_sleep_mask_ |= started_compute;

  // 2. Request crossbar, only when some SM has a packet to inject.  An
  //    accepted packet matures at now + latency; wake its partition then.
  //    A pop from a full out-queue wakes its SM for the next cycle when the
  //    SM's head transaction waited for that slot.
  if (req_src_mask_ != 0) {
    ProfScope prof(profiler_, LoopProfiler::kXbarReq);
    u64 full = 0;
    for (u64 m = req_src_mask_; m != 0; m &= m - 1) {
      const int s = std::countr_zero(m);
      if (sm_out_ptrs_[s]->full()) full |= u64{1} << s;
    }
    u64 blocked = 0;
    const u64 accepted = req_net_.transfer(now_, sm_out_ptrs_, &blocked);
    recorder_.note_xbar_stall(now_, /*resp_channel=*/false, blocked);
    for (u64 m = req_src_mask_; m != 0; m &= m - 1) {
      const int s = std::countr_zero(m);
      const BoundedQueue<MemRequestPacket>& q = *sm_out_ptrs_[s];
      if (q.empty()) req_src_mask_ &= ~(u64{1} << s);
      if (((full >> s) & 1) != 0 && !q.full() && sm_wake_[s] > now_ + 1 &&
          !sms_[s]->dispatch_blocked()) {
        sm_wake_[s] = now_ + 1;
      }
    }
    if (accepted != 0) {
      const Cycle arrive = now_ + cfg_.noc_latency;
      for (int p = 0; p < cfg_.num_partitions; ++p) {
        if (((accepted >> p) & 1) != 0 && part_wake_[p] > arrive) {
          part_wake_[p] = arrive;
        }
      }
    }
  }

  // 3. Memory partitions due this cycle.
  for (int p = 0; p < cfg_.num_partitions; ++p) {
    if (part_wake_[p] > now_) continue;
    sync_partition_to(p, now_);
    auto& inq = req_net_.dest_queue(p);
    {
      ProfScope prof(profiler_, LoopProfiler::kPartition);
      partitions_[p]->cycle(now_, inq);
    }
    part_synced_[p] = now_ + 1;
    Cycle wake = now_ + 1;
    if (partitions_[p]->quiet_at(now_, inq)) {
      wake = partitions_[p]->next_event_after(now_, inq);
      if (wake <= now_) wake = now_ + 1;
    }
    part_wake_[p] = wake;
    // A visit only appends to the response queue, so it can only bring the
    // earliest head forward.
    const auto& resp = partitions_[p]->resp_queue();
    if (!resp.empty() && resp.front().ready < resp_due_) {
      resp_due_ = resp.front().ready;
    }
  }

  // 4. Response crossbar, only when some partition has a ready response
  //    head.  An accepted packet matures at its SM at now + latency.  A pop
  //    from a full response queue wakes its partition for the next cycle
  //    when a deferred fill or a matured hit waits for that slot.
  if (resp_due_ <= now_) {
    ProfScope prof(profiler_, LoopProfiler::kXbarResp);
    u64 full = 0;
    for (int p = 0; p < cfg_.num_partitions; ++p) {
      if (part_resp_ptrs_[p]->full()) full |= u64{1} << p;
    }
    u64 blocked = 0;
    const u64 accepted = resp_net_.transfer(now_, part_resp_ptrs_, &blocked);
    recorder_.note_xbar_stall(now_, /*resp_channel=*/true, blocked);
    resp_due_ = kNeverCycle;
    for (int p = 0; p < cfg_.num_partitions; ++p) {
      const BoundedQueue<MemResponsePacket>& q = *part_resp_ptrs_[p];
      if (!q.empty() && q.front().ready < resp_due_) {
        resp_due_ = q.front().ready;
      }
      if (((full >> p) & 1) != 0 && !q.full() && part_wake_[p] > now_ + 1 &&
          partitions_[p]->waits_for_resp_slot(now_)) {
        part_wake_[p] = now_ + 1;
      }
    }
    if (accepted != 0) {
      const Cycle arrive = now_ + cfg_.noc_latency;
      for (int s = 0; s < cfg_.num_sms; ++s) {
        if (((accepted >> s) & 1) != 0 && sm_wake_[s] > arrive) {
          sm_wake_[s] = arrive;
        }
      }
    }
  }

  // 5. Hand over any drained SMs under a pending repartition.
  if (migration_pending_) progress_migration(now_ + 1);

  ++now_;
}

void Gpu::cycle_full() {
  // 1. Deliver matured responses to SMs, then advance each SM.
  for (int s = 0; s < cfg_.num_sms; ++s) {
    auto& rq = resp_net_.dest_queue(s);
    {
      ProfScope dprof(profiler_, LoopProfiler::kRespDelivery, 0);
      u64 delivered = 0;
      while (!rq.empty() && rq.front().ready <= now_) {
        const MemResponsePacket resp = rq.pop();
        if (injector_ != nullptr && injector_->should_drop_response()) {
          // Injected fault: the response vanishes at delivery, stranding
          // its warp.  Taps stay silent so the auditor must detect the
          // leak; the flight recorder logs what really happened.
          recorder_.record(now_, FrEvent::kFaultDropResp, s, resp.app,
                           resp.line_addr, 0);
          continue;
        }
        taps_.responses_delivered.add(resp.app);
        sms_[s]->receive(resp);
        ++delivered;
      }
      dprof.set_visits(delivered);
    }
    {
      ProfScope prof(profiler_, LoopProfiler::kSmAdvance);
      sms_[s]->cycle(now_);
    }
    const AppId app = sms_[s]->app();
    if (app != kInvalidApp) sm_cycles_.add(app);
  }

  // 2. Request crossbar: SM output FIFOs -> partition delivery queues.
  {
    ProfScope prof(profiler_, LoopProfiler::kXbarReq);
    u64 blocked = 0;
    req_net_.transfer(now_, sm_out_ptrs_, &blocked);
    recorder_.note_xbar_stall(now_, /*resp_channel=*/false, blocked);
  }

  // 3. Memory partitions (L2 + DRAM).
  {
    ProfScope prof(profiler_, LoopProfiler::kPartition, 0);
    u64 visited = 0;
    for (int p = 0; p < cfg_.num_partitions; ++p) {
      if (injector_ != nullptr && injector_->partition_stalled(p, now_)) {
        continue;  // injected fault: the whole partition is frozen
      }
      partitions_[p]->cycle(now_, req_net_.dest_queue(p));
      ++visited;
    }
    prof.set_visits(visited);
  }

  // 4. Response crossbar: partition response FIFOs -> SM delivery queues.
  {
    ProfScope prof(profiler_, LoopProfiler::kXbarResp);
    u64 blocked = 0;
    resp_net_.transfer(now_, part_resp_ptrs_, &blocked);
    recorder_.note_xbar_stall(now_, /*resp_channel=*/true, blocked);
  }

  // This path accrues everything eagerly, so the sync cursors track the
  // clock (a handover below then has nothing left to settle); re-entering
  // the engine later starts from a clean rebuild.
  for (int s = 0; s < cfg_.num_sms; ++s) sm_synced_[s] = now_ + 1;
  for (int p = 0; p < cfg_.num_partitions; ++p) part_synced_[p] = now_ + 1;
  engine_dirty_ = true;

  // 5. Hand over any drained SMs under a pending repartition.
  if (migration_pending_) progress_migration(now_ + 1);

  ++now_;
}

void Gpu::run(Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) cycle();
  sync_for_observation();
}

IntervalSample Gpu::end_interval() {
  // Interval samples read the lazily-accrued stall/idle/bus counters, so
  // settle every sleeping component up to the boundary first.
  sync_all_to(now_);
  IntervalSample sample;
  sample.start = last_interval_end_;
  sample.length = now_ - last_interval_end_;
  sample.total_sms = cfg_.num_sms;
  sample.count_apps = num_apps();
  sample.apps.resize(num_apps());

  for (AppId a = 0; a < num_apps(); ++a) {
    AppIntervalData& d = sample.apps[a];
    d.app = a;
    d.sm_cycles = sm_cycles_.interval(a);
    d.instructions = instructions_.interval(a);
    d.remaining_blocks = runtimes_[a]->remaining_blocks();

    u64 stall = 0;
    for (const auto& sm : sms_) {
      if (sm->app() != a) continue;
      ++d.num_sms;
      d.active_blocks += sm->active_blocks();
      stall += sm->counters().mem_stall_cycles.interval();
    }
    d.alpha = d.sm_cycles > 0 ? static_cast<double>(stall) / d.sm_cycles : 0.0;

    u64 blp_occ = 0;
    u64 blp_acc = 0;
    u64 blp_time = 0;
    for (const auto& p : partitions_) {
      const McCounters& mcc = p->mc().counters();
      d.requests_served += mcc.requests_served.interval(a);
      d.bank_service_time += mcc.bank_service_time.interval(a);
      d.erb_miss += mcc.erb_miss.interval(a);
      d.priority_served += mcc.priority_served.interval(a);
      d.priority_cycles += mcc.priority_cycles.interval(a);
      d.nonpriority_served += mcc.nonpriority_served.interval(a);
      d.l2_accesses_priority += p->counters().l2_accesses_priority.interval(a);
      d.l2_accesses_nonpriority +=
          p->counters().l2_accesses_nonpriority.interval(a);
      blp_occ += mcc.blp_occupancy_int.interval(a);
      blp_acc += mcc.blp_access_int.interval(a);
      blp_time += mcc.blp_time.interval(a);
      d.l2_accesses += p->counters().l2_accesses.interval(a);
      d.l2_hits += p->counters().l2_hits.interval(a);
      d.ellc_miss_scaled += p->interval_scaled_extra_misses(a);
    }
    d.blp = blp_time > 0 ? static_cast<double>(blp_occ) / blp_time : 0.0;
    d.blp_access =
        blp_time > 0 ? static_cast<double>(blp_acc) / blp_time : 0.0;
    sample.total_requests_served += d.requests_served;
  }
  for (const auto& p : partitions_) {
    sample.nonpriority_cycles +=
        p->mc().counters().nonpriority_cycles.interval();
  }

  // Snapshot everything for the next interval.
  instructions_.snapshot();
  sm_cycles_.snapshot();
  for (auto& sm : sms_) sm->counters().snapshot_all();
  for (auto& p : partitions_) {
    p->mc().counters().snapshot_all();
    p->counters().snapshot_all();
  }
  last_interval_end_ = now_;
  return sample;
}

bool Gpu::memory_system_quiescent() const {
  for (const auto& p : partitions_) {
    if (!p->quiescent()) return false;
  }
  if (!req_net_.all_empty() || !resp_net_.all_empty()) return false;
  for (const auto& sm : sms_) {
    if (!sm->out_queue().empty()) return false;
  }
  return true;
}

AuditReport Gpu::audit_conservation() const {
  AuditReport report;
  report.cycle = now_;
  for (int a = 0; a < kMaxApps; ++a) {
    report.sent[a] = taps_.requests_sent.total(a);
    report.consumed[a] = taps_.requests_consumed.total(a);
    report.enqueued[a] = taps_.responses_enqueued.total(a);
    report.delivered[a] = taps_.responses_delivered.total(a);
  }

  // Walk everything currently in flight, stage by stage.
  auto tally = [&report](AppId app) {
    if (app >= 0 && app < kMaxApps) ++report.in_flight[app];
  };
  for (const auto& sm : sms_) {
    for (const MemRequestPacket& pkt : sm->out_queue()) tally(pkt.app);
  }
  for (int d = 0; d < req_net_.num_dests(); ++d) {
    for (const MemRequestPacket& pkt : req_net_.dest_queue(d)) tally(pkt.app);
  }
  std::array<u64, kMaxApps> partition_flight{};
  for (const auto& p : partitions_) p->count_in_flight(partition_flight);
  for (int a = 0; a < kMaxApps; ++a) report.in_flight[a] += partition_flight[a];
  for (int d = 0; d < resp_net_.num_dests(); ++d) {
    for (const MemResponsePacket& pkt : resp_net_.dest_queue(d)) {
      tally(pkt.app);
    }
  }

  for (int a = 0; a < kMaxApps; ++a) {
    report.leaked[a] = static_cast<i64>(report.sent[a]) -
                       static_cast<i64>(report.delivered[a]) -
                       static_cast<i64>(report.in_flight[a]);
  }
  return report;
}

void Gpu::verify_conservation() const {
  const AuditReport report = audit_conservation();
  if (report.ok()) return;
  SIM_FAIL(SimError(SimErrorKind::kConservation, "gpu",
                    report.total_leaked() >= 0
                        ? "memory request(s) leaked"
                        : "memory request(s) completed more than once")
               .cycle(now_)
               .detail("total_leaked", report.total_leaked())
               .detail("report", report.to_string())
               .detail("pipeline_state", dump_state()));
}

std::string Gpu::dump_state() const {
  std::ostringstream ss;
  ss << "=== GPU pipeline state @ cycle " << now_ << " ===";
  for (int s = 0; s < cfg_.num_sms; ++s) {
    const SmCore& sm = *sms_[s];
    ss << "\n    SM " << s << ": app=" << sm.app()
       << (sm.draining() ? " (draining)" : "")
       << " blocks=" << sm.active_blocks() << " live_warps=" << sm.live_warps()
       << " waiting_warps=" << sm.waiting_warps()
       << " out_queue=" << sm.out_queue().size() << '/'
       << sm.out_queue().capacity();
  }
  for (int p = 0; p < num_partitions(); ++p) {
    const MemoryPartition& part = *partitions_[p];
    ss << "\n    partition " << p
       << ": req_net_in=" << req_net_.dest_queue(p).size()
       << " mc_queue=" << part.mc().queue_size()
       << " mc_inflight=" << part.mc().inflight_size()
       << " mc_bus_ready=" << part.mc().bus_ready_size()
       << " mc_outstanding=" << part.mc().total_outstanding()
       << " l2_mshr=" << part.mshr_in_flight()
       << " resp_queue=" << part.resp_queue().size()
       << " deferred=" << part.deferred_responses();
  }
  u64 resp_net_backlog = 0;
  for (int d = 0; d < resp_net_.num_dests(); ++d) {
    resp_net_backlog += resp_net_.dest_queue(d).size();
  }
  ss << "\n    resp_net backlog=" << resp_net_backlog
     << " instructions=" << instructions_.grand_total()
     << " quiescent=" << (memory_system_quiescent() ? "yes" : "no");
  // Activity-engine view: which components the scheduler believes are
  // asleep and until when, plus how much lazily-deferred accrual each one
  // still owes.  A watchdog stall with a far-future wake here points at a
  // lost wake-up; an owed accrual at a stall points at a settle bug.
  ss << "\n    activity engine: "
     << (engine_enabled() ? "active" : "inactive")
     << (activity_sched_ ? "" : " (disabled)")
     << (injector_ != nullptr ? " (pinned: fault injector)" : "")
     << (migration_pending_ ? " migration-pending" : "")
     << (engine_dirty_ ? " dirty" : "")
     << " req_src_mask=0x" << std::hex << req_src_mask_
     << " compute_sleep_mask=0x" << compute_sleep_mask_ << std::dec
     << " resp_due=";
  if (resp_due_ == kNeverCycle) {
    ss << "never";
  } else {
    ss << resp_due_;
  }
  auto dump_cursors = [&ss, this](const char* what,
                                  const std::vector<Cycle>& wake,
                                  const std::vector<Cycle>& synced) {
    ss << "\n    " << what << " wake/owed:";
    for (std::size_t i = 0; i < wake.size(); ++i) {
      ss << ' ' << i << ":";
      if (wake[i] <= now_) {
        ss << "due";
      } else if (wake[i] == kNeverCycle) {
        ss << "never";
      } else {
        ss << "+" << (wake[i] - now_);
      }
      if (synced[i] < now_) ss << "(owed " << (now_ - synced[i]) << ")";
    }
  };
  dump_cursors("sm", sm_wake_, sm_synced_);
  dump_cursors("partition", part_wake_, part_synced_);
  ss << "\n    flight recorder: " << recorder_.size() << "/"
     << recorder_.capacity() << " events held, "
     << recorder_.total_recorded() << " recorded in total";
  return ss.str();
}

template <typename Sink>
void Gpu::write_state(Sink& s) const {
  // The activity-engine wakes/masks/cursors are execution strategy, not
  // state; settling owed accruals here makes the serialized counters
  // identical to what the per-cycle walk would have written.
  sync_for_observation();
  s.put_tag("GPU ");
  s.put_u64(now_);
  s.put_u64(last_interval_end_);
  s.put_bool(migration_pending_);
  s.put_u64(migration_pending_since_);
  s.put_u64(desired_partition_.size());
  for (AppId a : desired_partition_) s.put_i32(a);
  instructions_.write_state(s);
  sm_cycles_.write_state(s);
  taps_.write_state(s);
  for (const auto& rt : runtimes_) rt->write_state(s);
  for (const auto& sm : sms_) {
    s.put_i32(sm->app());
    sm->write_state(s);
  }
  for (const auto& part : partitions_) part->write_state(s);
  req_net_.write_state(s);
  resp_net_.write_state(s);
  // Fault-injector progress (counters + RNG).  The *schedule* is runtime
  // configuration and is covered by the snapshot fingerprint through the
  // harness context; serializing the counters here makes armed nth-event
  // faults fire at the same event after a restore.
  s.put_bool(injector_ != nullptr);
  if (injector_ != nullptr) injector_->write_state(s);
  // The flight-recorder ring is simulated state: its taps fire on simulated
  // transitions only, so the ring contents are deterministic and must
  // survive snapshot/restore for a resumed run's trace to match.
  recorder_.write_state(s);
}

template void Gpu::write_state<StateWriter>(StateWriter&) const;
template void Gpu::write_state<Hasher>(Hasher&) const;

void Gpu::load(StateReader& r) {
  r.expect_tag("GPU ");
  now_ = r.get_u64();
  last_interval_end_ = r.get_u64();
  migration_pending_ = r.get_bool();
  migration_pending_since_ = r.get_u64();
  const u64 parts = r.get_u64();
  SIM_CHECK(parts == desired_partition_.size(),
            SimError(SimErrorKind::kSnapshot, "gpu",
                     "snapshot partition-table size does not match this GPU")
                .detail("snapshot_sms", parts)
                .detail("gpu_sms", desired_partition_.size()));
  for (AppId& a : desired_partition_) a = r.get_i32();
  instructions_.load(r);
  sm_cycles_.load(r);
  taps_.load(r);
  for (auto& rt : runtimes_) rt->load(r);
  for (auto& sm : sms_) {
    const AppId app = r.get_i32();
    SIM_CHECK(app == kInvalidApp || (app >= 0 && app < num_apps()),
              SimError(SimErrorKind::kSnapshot, "gpu",
                       "snapshot SM owner is not a launched application")
                  .detail("sm", sm->id())
                  .detail("app", app));
    BlockSource* source = app == kInvalidApp ? nullptr : runtimes_[app].get();
    sm->load(r, source);
  }
  for (auto& part : partitions_) part->load(r);
  req_net_.load(r);
  resp_net_.load(r);
  const bool had_injector = r.get_bool();
  SIM_CHECK(had_injector == (injector_ != nullptr),
            SimError(SimErrorKind::kSnapshot, "gpu",
                     "snapshot fault-injector attachment does not match this "
                     "simulation (attach the same FaultSchedule before "
                     "restoring)")
                .detail("snapshot_has_injector", had_injector)
                .detail("gpu_has_injector", injector_ != nullptr));
  if (injector_ != nullptr) injector_->load(r);
  recorder_.load(r);
  // Restored state is exactly what the per-cycle walk would hold at the
  // restored clock: nothing is owed, and wakes/masks must be rebuilt.
  for (Cycle& c : sm_synced_) c = now_;
  for (Cycle& c : part_synced_) c = now_;
  engine_dirty_ = true;
}

u64 Gpu::state_hash() const {
  Hasher h;
  write_state(h);
  return h.digest();
}

std::vector<std::pair<std::string, u64>> Gpu::component_hashes() const {
  sync_for_observation();
  std::vector<std::pair<std::string, u64>> out;
  {
    Hasher h;
    h.put_u64(now_);
    h.put_u64(last_interval_end_);
    h.put_bool(migration_pending_);
    h.put_u64(migration_pending_since_);
    for (AppId a : desired_partition_) h.put_i32(a);
    instructions_.write_state(h);
    sm_cycles_.write_state(h);
    taps_.write_state(h);
    out.emplace_back("gpu.core", h.digest());
  }
  for (int a = 0; a < num_apps(); ++a) {
    out.emplace_back("app_runtime[" + std::to_string(a) + "]",
                     state_hash_of(*runtimes_[a]));
  }
  for (int i = 0; i < num_sms(); ++i) {
    Hasher h;
    h.put_i32(sms_[i]->app());
    sms_[i]->write_state(h);
    out.emplace_back("sm[" + std::to_string(i) + "]", h.digest());
  }
  for (int p = 0; p < num_partitions(); ++p) {
    out.emplace_back("partition[" + std::to_string(p) + "]",
                     state_hash_of(*partitions_[p]));
  }
  out.emplace_back("req_net", state_hash_of(req_net_));
  out.emplace_back("resp_net", state_hash_of(resp_net_));
  if (injector_ != nullptr) {
    out.emplace_back("fault_injector", state_hash_of(*injector_));
  }
  out.emplace_back("flight_recorder", state_hash_of(recorder_));
  return out;
}

}  // namespace gpusim
