#include "sm/sm_core.hpp"

namespace gpusim {

namespace {
constexpr int kTxnDispatchPerCycle = 2;  // L1/LSU transaction bandwidth
constexpr int kOutQueueDepth = 16;
}  // namespace

SmCore::SmCore(const GpuConfig& cfg, SmId id, const AddressMap& address_map)
    : cfg_(cfg),
      id_(id),
      address_map_(address_map),
      l1_(cfg.l1_num_sets(), cfg.l1_assoc, cfg.line_bytes),
      l1_mshr_(cfg.l1_mshr_entries),
      out_queue_(kOutQueueDepth) {
  SIM_CHECK(cfg.max_warps_per_sm > 0 && cfg.max_warps_per_sm <= 64,
            SimError(SimErrorKind::kConfig, "sm.core",
                     "max_warps_per_sm must be in [1, 64] (warp masks are "
                     "64 bits wide)")
                .detail("max_warps_per_sm", cfg.max_warps_per_sm));
  warps_.resize(cfg.max_warps_per_sm);
  blocks_.resize(cfg.max_blocks_per_sm);
}

void SmCore::assign(BlockSource* source, Cycle now) {
  SIM_INVARIANT(source != nullptr, "sm.core", "assign() with null source");
  SIM_CHECK(source_ == nullptr,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "assign() on an SM that was not released")
                .app(app())
                .detail("sm", id_));
  source_ = source;
  draining_ = false;
  block_limit_ = max_concurrent_blocks();
  refill_blocks(now);
}

bool SmCore::drained() const {
  return pending_txns_.empty() && local_hits_.empty() && out_queue_.empty() &&
         l1_mshr_.in_flight() == 0 && (ready_mask_ | waiting_mask_) == 0;
}

void SmCore::release() {
  SIM_CHECK(drained(),
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "release() of an SM still holding work")
                .app(app())
                .detail("sm", id_)
                .detail("live_warps", live_warps())
                .detail("out_queue", out_queue_.size())
                .detail("l1_mshr_in_flight", l1_mshr_.in_flight()));
  source_ = nullptr;
  draining_ = false;
  last_issued_ = -1;
  ready_mask_ = 0;
  waiting_mask_ = 0;
  active_blocks_ = 0;
  block_limit_ = 0;
  for (WarpCtx& w : warps_) w = WarpCtx{};
  for (BlockSlot& b : blocks_) b = BlockSlot{};
  l1_.clear();
  l1_mshr_.clear();
}

int SmCore::max_concurrent_blocks() const {
  if (source_ == nullptr) return 0;
  const KernelProfile& profile = source_->profile();
  // The Gpu constructor rejects a block wider than max_warps_per_sm.
  const int by_warps = cfg_.max_warps_per_sm / profile.warps_per_block;
  int limit = std::min(cfg_.max_blocks_per_sm, by_warps);
  if (profile.max_concurrent_blocks > 0) {
    limit = std::min(limit, profile.max_concurrent_blocks);
  }
  return limit;
}

void SmCore::refill_blocks(Cycle now) {
  // An unassigned SM has a block limit of 0.
  if (draining_ || active_blocks_ >= block_limit_) return;
  const KernelProfile& profile = source_->profile();
  const u64 all_ctxs = warps_.size() == 64
                           ? ~u64{0}
                           : (u64{1} << warps_.size()) - 1;

  for (int slot = 0; slot < static_cast<int>(blocks_.size()); ++slot) {
    if (blocks_[slot].active) continue;
    if (active_blocks_ >= block_limit_) break;
    // The block takes the lowest-indexed free (unused or done) contexts.
    u64 free_ctxs = all_ctxs & ~(ready_mask_ | waiting_mask_);
    if (std::popcount(free_ctxs) < profile.warps_per_block) break;
    const std::optional<u64> block = source_->try_alloc_block();
    if (!block.has_value()) break;

    ++active_blocks_;
    blocks_[slot].active = true;
    blocks_[slot].block_index = *block;
    blocks_[slot].warps_remaining = profile.warps_per_block;
    if (recorder_ != nullptr) {
      recorder_->record(now, FrEvent::kBlockDispatch, id_, source_->app(),
                        *block, 0);
    }
    blocks_[slot].stream = AddressStream::make_block_stream(
        profile, source_->app_seed(), *block);
    for (int i = 0; i < profile.warps_per_block; ++i) {
      const int ctx = std::countr_zero(free_ctxs);
      free_ctxs &= free_ctxs - 1;
      WarpCtx& w = warps_[ctx];
      w = WarpCtx{};
      w.state = WarpCtx::State::kReady;
      ready_mask_ |= u64{1} << ctx;
      w.budget = profile.instrs_per_warp;
      w.block_slot = slot;
      w.stream.emplace(&profile, source_->app(), source_->app_seed(), *block,
                       i, &blocks_[slot].stream);
      w.compute_remaining = w.stream->next_compute_run();
    }
  }
}

void SmCore::cycle(Cycle now) {
  // 1. Mature L1 hits.
  while (!local_hits_.empty() && local_hits_.front().first <= now) {
    complete_txn(local_hits_.front().second);
    local_hits_.pop_front();
  }

  // 2. Dispatch pending memory transactions through the L1.
  dispatch_pending(now);

  // 3. Issue stage.
  issue(now);

  // 4. Keep block slots occupied.
  refill_blocks(now);
}

void SmCore::dispatch_pending(Cycle now) {
  for (int n = 0; n < kTxnDispatchPerCycle && !pending_txns_.empty(); ++n) {
    const PendingTxn txn = pending_txns_.front();
    const u64 line = txn.addr;

    if (l1_mshr_.contains(line)) {
      counters_.l1_accesses.add();
      l1_mshr_.allocate(line, {id_, txn.warp, app()});
      pending_txns_.pop_front();
      continue;
    }
    if (l1_.probe(line)) {
      counters_.l1_accesses.add();
      l1_.lookup_touch(line, app());
      counters_.l1_hits.add();
      local_hits_.push_back({now + cfg_.l1_hit_latency, txn.warp});
      pending_txns_.pop_front();
      continue;
    }
    if (l1_mshr_.full() || out_queue_.full()) break;  // retry next cycle
    counters_.l1_accesses.add();
    l1_.lookup_touch(line, app());  // records the L1 miss
    l1_mshr_.allocate(line, {id_, txn.warp, app()});
    MemRequestPacket pkt;
    pkt.line_addr = line;
    pkt.app = app();
    pkt.sm = id_;
    pkt.warp = txn.warp;
    pkt.dest = address_map_.partition_of(line);
    pkt.ready = now;
    const bool pushed = out_queue_.try_push(pkt);
    SIM_CHECK(pushed, SimError(SimErrorKind::kQueueOverflow, "sm.core",
                               "out queue overflow after full() check")
                          .cycle(now)
                          .app(app())
                          .detail("sm", id_)
                          .detail("occupancy", out_queue_.size()));
    if (taps_ != nullptr) taps_->requests_sent.add(app());
    pending_txns_.pop_front();
  }
}

void SmCore::issue(Cycle now) {
  (void)now;
  // Greedy-then-oldest: stick with the last issued warp while it stays
  // ready, otherwise take the lowest-indexed ready warp.
  if (ready_mask_ == 0) {
    // No warp is ready, so every live warp waits on memory.
    if (waiting_mask_ != 0) {
      counters_.mem_stall_cycles.add();
    } else {
      counters_.idle_cycles.add();
    }
    return;
  }
  const WarpId pick = last_issued_ >= 0 && ((ready_mask_ >> last_issued_) & 1)
                          ? last_issued_
                          : std::countr_zero(ready_mask_);

  WarpCtx& warp = warps_[pick];
  last_issued_ = pick;
  counters_.instructions.add();
  counters_.issue_cycles.add();
  if (instr_sink_ != nullptr) instr_sink_->add(app());
  ++warp.instrs_done;

  if (warp.compute_remaining > 0) {
    --warp.compute_remaining;
    if (warp.instrs_done >= warp.budget) retire_warp(pick);
    return;
  }

  // Memory instruction: generate coalesced transactions.
  counters_.mem_instructions.add();
  addr_scratch_.clear();
  warp.stream->next_mem_instr(addr_scratch_);
  warp.compute_remaining = warp.stream->next_compute_run();
  warp.outstanding = static_cast<int>(addr_scratch_.size());
  warp.state = WarpCtx::State::kWaitingMem;
  ready_mask_ &= ~(u64{1} << pick);
  waiting_mask_ |= u64{1} << pick;
  for (u64 addr : addr_scratch_) {
    pending_txns_.push_back({pick, addr});
  }
}

void SmCore::complete_txn(WarpId warp_id) {
  WarpCtx& warp = warps_[warp_id];
  SIM_CHECK(warp.state == WarpCtx::State::kWaitingMem && warp.outstanding > 0,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "memory completion for a warp that is not waiting "
                     "(duplicated response?)")
                .app(app())
                .detail("sm", id_)
                .detail("warp", warp_id)
                .detail("state", static_cast<int>(warp.state))
                .detail("outstanding", warp.outstanding));
  if (--warp.outstanding == 0) {
    waiting_mask_ &= ~(u64{1} << warp_id);
    if (warp.instrs_done >= warp.budget) {
      retire_warp(warp_id);
    } else {
      warp.state = WarpCtx::State::kReady;
      ready_mask_ |= u64{1} << warp_id;
    }
  }
}

void SmCore::retire_warp(WarpId warp_id) {
  WarpCtx& warp = warps_[warp_id];
  ready_mask_ &= ~(u64{1} << warp_id);
  warp.state = WarpCtx::State::kDone;
  BlockSlot& block = blocks_[warp.block_slot];
  SIM_CHECK(block.active && block.warps_remaining > 0,
            SimError(SimErrorKind::kInvariant, "sm.core",
                     "warp retired into an inactive or exhausted block slot")
                .app(app())
                .detail("sm", id_)
                .detail("block_slot", warp.block_slot)
                .detail("warps_remaining", block.warps_remaining));
  if (--block.warps_remaining == 0) {
    block.active = false;
    --active_blocks_;
    source_->on_block_complete(block.block_index);
    // Free every context of this block for reuse.
    for (WarpCtx& w : warps_) {
      if (w.block_slot == warp.block_slot &&
          w.state == WarpCtx::State::kDone) {
        w = WarpCtx{};
      }
    }
  }
}

void SmCore::load(StateReader& r, BlockSource* source) {
  source_ = source;
  r.expect_tag("SMCR");
  draining_ = r.get_bool();
  last_issued_ = r.get_i32();
  SIM_CHECK(last_issued_ >= -1 &&
                last_issued_ < static_cast<int>(warps_.size()),
            SimError(SimErrorKind::kSnapshot, "sm.core",
                     "corrupt last-issued warp index in snapshot")
                .detail("sm", id_)
                .detail("last_issued", last_issued_)
                .detail("warp_contexts", warps_.size()));
  const int ready_warps = r.get_i32();
  active_blocks_ = 0;
  for (BlockSlot& b : blocks_) {
    b.active = r.get_bool();
    active_blocks_ += b.active ? 1 : 0;
    b.block_index = r.get_u64();
    b.warps_remaining = r.get_i32();
    b.stream.base_line = r.get_u64();
    b.stream.cursor = r.get_u64();
  }
  ready_mask_ = 0;
  waiting_mask_ = 0;
  for (int i = 0; i < static_cast<int>(warps_.size()); ++i) {
    WarpCtx& w = warps_[i];
    w.stream.reset();
    const u8 state = r.get_u8();
    SIM_CHECK(state <= static_cast<u8>(WarpCtx::State::kDone),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp state in snapshot")
                  .detail("sm", id_)
                  .detail("state", static_cast<int>(state)));
    w.state = static_cast<WarpCtx::State>(state);
    if (w.state == WarpCtx::State::kReady) ready_mask_ |= u64{1} << i;
    if (w.state == WarpCtx::State::kWaitingMem) waiting_mask_ |= u64{1} << i;
    w.instrs_done = r.get_u64();
    w.budget = r.get_u64();
    w.compute_remaining = r.get_u64();
    w.outstanding = r.get_i32();
    w.block_slot = r.get_i32();
    // A live or retiring warp's block slot is dereferenced on the next
    // retire; a corrupt index must die here as a typed error, not as an
    // out-of-bounds store later.
    SIM_CHECK(w.state == WarpCtx::State::kUnused ||
                  (w.block_slot >= -1 &&
                   w.block_slot < static_cast<int>(blocks_.size())),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp block-slot index in snapshot")
                  .detail("sm", id_)
                  .detail("block_slot", w.block_slot)
                  .detail("block_slots", blocks_.size()));
    if (r.get_bool()) {
      // Reconstruct the stream against the freshly restored block cursor,
      // then overwrite its RNG with the saved engine state (warp_in_block
      // only perturbs the constructor seed, so 0 is fine here).
      SIM_CHECK(source_ != nullptr && w.block_slot >= 0 &&
                    w.block_slot < static_cast<int>(blocks_.size()),
                SimError(SimErrorKind::kSnapshot, "sm.core",
                         "warp stream without a resolvable block source")
                    .detail("sm", id_)
                    .detail("block_slot", w.block_slot));
      BlockSlot& b = blocks_[w.block_slot];
      w.stream.emplace(&source_->profile(), source_->app(),
                       source_->app_seed(), b.block_index, 0, &b.stream);
      w.stream->load(r);
    }
  }
  SIM_CHECK(ready_warps == std::popcount(ready_mask_),
            SimError(SimErrorKind::kSnapshot, "sm.core",
                     "ready-warp count disagrees with the warp states in "
                     "snapshot")
                .detail("sm", id_)
                .detail("ready_warps", ready_warps)
                .detail("ready_states", std::popcount(ready_mask_)));
  block_limit_ = max_concurrent_blocks();
  const auto check_warp_index = [this](WarpId warp, const char* what) {
    SIM_CHECK(warp >= 0 && warp < static_cast<WarpId>(warps_.size()),
              SimError(SimErrorKind::kSnapshot, "sm.core",
                       "corrupt warp index in snapshot")
                  .detail("sm", id_)
                  .detail("what", what)
                  .detail("warp", warp)
                  .detail("warp_contexts", warps_.size()));
  };
  pending_txns_.clear();
  const u64 txns = r.get_count(1u << 20, "sm pending txns");
  for (u64 i = 0; i < txns; ++i) {
    PendingTxn t{};
    t.warp = r.get_i32();
    check_warp_index(t.warp, "pending txn");
    t.addr = r.get_u64();
    pending_txns_.push_back(t);
  }
  local_hits_.clear();
  const u64 hits = r.get_count(1u << 20, "sm local hits");
  for (u64 i = 0; i < hits; ++i) {
    const Cycle ready = r.get_u64();
    const WarpId warp = r.get_i32();
    check_warp_index(warp, "local hit");
    local_hits_.push_back({ready, warp});
  }
  l1_.load(r);
  l1_mshr_.load(r);
  out_queue_.load(r);
  counters_.load(r);
}

void SmCore::receive(const MemResponsePacket& resp) {
  l1_.fill(resp.line_addr, resp.app);
  l1_mshr_.release(resp.line_addr,
                   [this](const MshrWaiter& w) { complete_txn(w.warp); });
}

}  // namespace gpusim
