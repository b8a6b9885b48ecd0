#include "mem/dram.hpp"

#include <algorithm>
#include <bit>

#include "common/sim_error.hpp"

namespace gpusim {

void FrFcfsQueue::push(const DramCmd& cmd) {
  int slot = free_slot_;
  if (slot >= 0) {
    free_slot_ = slots_[slot].next;
  } else {
    slot = static_cast<int>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot] = Slot{cmd, next_seq_++, -1};
  Bank& bank = banks_[cmd.bank];
  if (bank.tail >= 0) {
    slots_[bank.tail].next = slot;
  } else {
    bank.head = slot;
  }
  bank.tail = slot;
  if (is_hit(bank, cmd) && bank.hits++ == 0) hit_banks_ |= 1u << cmd.bank;
  ++size_;
}

void FrFcfsQueue::clear() {
  slots_.clear();
  for (Bank& bank : banks_) {
    bank.head = bank.tail = -1;
    bank.hits = 0;
  }
  hit_banks_ = 0;
  free_slot_ = -1;
  size_ = 0;
  next_seq_ = 0;
}

void FrFcfsQueue::set_open_row(int b, bool open, u64 row) {
  Bank& bank = banks_[b];
  bank.row_open = open;
  bank.open_row = row;
  bank.hits = 0;
  for (int slot = bank.head; slot >= 0; slot = slots_[slot].next) {
    if (is_hit(bank, slots_[slot].cmd)) ++bank.hits;
  }
  if (bank.hits != 0) {
    hit_banks_ |= 1u << b;
  } else {
    hit_banks_ &= ~(1u << b);
  }
}

void FrFcfsQueue::unlink(int slot, int prev) {
  Slot& s = slots_[slot];
  Bank& bank = banks_[s.cmd.bank];
  if (prev >= 0) {
    slots_[prev].next = s.next;
  } else {
    bank.head = s.next;
  }
  if (bank.tail == slot) bank.tail = prev;
  if (is_hit(bank, s.cmd) && --bank.hits == 0) {
    hit_banks_ &= ~(1u << s.cmd.bank);
  }
  s.next = free_slot_;
  free_slot_ = slot;
  --size_;
}

std::optional<FrFcfsQueue::Pick> FrFcfsQueue::pop_pick(u32 candidate_banks,
                                                        AppId only_app) {
  // Each bank's list is in arrival order, so a bank's first eligible
  // command on its open row is its oldest hit; across banks the sequence
  // number decides, and once some hit is known only older commands can
  // matter.  Without an eligible hit every eligible command is a miss, and
  // each bank's first eligible command is its oldest.
  const auto eligible = [only_app](const DramCmd& cmd) {
    return only_app == kInvalidApp || cmd.app == only_app;
  };
  u64 best_seq = ~u64{0};
  int best = -1;
  int best_prev = -1;
  for (u32 m = candidate_banks & hit_banks_; m != 0; m &= m - 1) {
    const Bank& bank = banks_[std::countr_zero(m)];
    for (int slot = bank.head, prev = -1; slot >= 0;
         prev = slot, slot = slots_[slot].next) {
      const Slot& q = slots_[slot];
      if (q.seq > best_seq) break;
      if (eligible(q.cmd) && is_hit(bank, q.cmd)) {
        best_seq = q.seq;
        best = slot;
        best_prev = prev;
        break;
      }
    }
  }
  const bool row_hit = best >= 0;
  if (!row_hit) {
    for (u32 m = candidate_banks; m != 0; m &= m - 1) {
      const Bank& bank = banks_[std::countr_zero(m)];
      for (int slot = bank.head, prev = -1; slot >= 0;
           prev = slot, slot = slots_[slot].next) {
        const Slot& q = slots_[slot];
        if (q.seq > best_seq) break;
        if (eligible(q.cmd)) {
          best_seq = q.seq;
          best = slot;
          best_prev = prev;
          break;
        }
      }
    }
  }
  if (best < 0) return std::nullopt;
  const DramCmd cmd = slots_[best].cmd;
  unlink(best, best_prev);
  return Pick{cmd, row_hit};
}

std::vector<DramCmd> FrFcfsQueue::in_arrival_order() const {
  std::vector<const Slot*> queued;
  queued.reserve(static_cast<std::size_t>(size_));
  for (const Bank& bank : banks_) {
    for (int slot = bank.head; slot >= 0; slot = slots_[slot].next) {
      queued.push_back(&slots_[slot]);
    }
  }
  std::sort(queued.begin(), queued.end(),
            [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
  std::vector<DramCmd> out;
  out.reserve(queued.size());
  for (const Slot* q : queued) out.push_back(q->cmd);
  return out;
}

MemoryController::MemoryController(const GpuConfig& cfg, int num_apps)
    : cfg_(cfg),
      num_apps_(num_apps),
      queue_capacity_(cfg.dram_queue_capacity),
      t_rp_(cfg.t_rp()),
      t_rcd_(cfg.t_rcd()),
      t_cl_(cfg.t_cl()),
      t_burst_(cfg.t_burst()),
      t_bus_gap_(cfg.t_bus_gap()),
      t_miss_bubble_(cfg.t_miss_bubble()),
      banks_(cfg.banks_per_mc),
      queue_(cfg.banks_per_mc),
      queued_per_bank_app_(cfg.banks_per_mc),
      exec_per_bank_app_(cfg.banks_per_mc) {
  SIM_CHECK(num_apps_ > 0 && num_apps_ <= kMaxApps,
            SimError(SimErrorKind::kConfig, "mem.dram",
                     "application count out of range")
                .detail("num_apps", num_apps_)
                .detail("kMaxApps", kMaxApps));
  SIM_CHECK(cfg.banks_per_mc <= 32,
            SimError(SimErrorKind::kConfig, "mem.dram",
                     "banks_per_mc exceeds 32-bit bank bitmask width")
                .detail("banks_per_mc", cfg.banks_per_mc));
  last_row_.assign(static_cast<std::size_t>(num_apps_) * cfg_.banks_per_mc,
                   0);
}

bool MemoryController::try_enqueue(const DramCmd& cmd) {
  SIM_CHECK(cmd.app >= 0 && cmd.app < num_apps_,
            SimError(SimErrorKind::kInvariant, "mem.dram",
                     "DRAM command for unknown application")
                .app(cmd.app)
                .detail("num_apps", num_apps_));
  SIM_CHECK(cmd.bank >= 0 && cmd.bank < cfg_.banks_per_mc,
            SimError(SimErrorKind::kInvariant, "mem.dram",
                     "DRAM command routed to nonexistent bank")
                .app(cmd.app)
                .detail("bank", cmd.bank)
                .detail("banks_per_mc", cfg_.banks_per_mc));
  if (queue_full()) return false;
  queue_.push(cmd);
  if (queued_per_bank_app_[cmd.bank][cmd.app]++ == 0) {
    queued_mask_[cmd.app] |= 1u << cmd.bank;
  }
  ++outstanding_[cmd.app];
  return true;
}

void MemoryController::cycle(Cycle now, std::vector<DramCmd>& completed) {
  retire_inflight(now, completed);
  grant_bus(now);
  finish_preps(now);
  issue_one(now);
  account_cycle(now);
}

void MemoryController::retire_inflight(Cycle now,
                                       std::vector<DramCmd>& completed) {
  while (!inflight_.empty() && inflight_.front().complete_at <= now) {
    const InFlight& f = inflight_.front();
    const AppId app = f.cmd.app;
    counters_.requests_served.add(app);
    counters_.bank_service_time.add(app, f.complete_at - f.issue_start);
    if (priority_app_ == app) {
      counters_.priority_served.add(app);
    } else if (priority_app_ == kInvalidApp) {
      counters_.nonpriority_served.add(app);
    }
    --outstanding_[app];
    if (--exec_per_bank_app_[f.cmd.bank][app] == 0) {
      exec_mask_[app] &= ~(1u << f.cmd.bank);
    }
    completed.push_back(f.cmd);
    inflight_.pop_front();
  }
}

void MemoryController::grant_bus(Cycle now) {
  // Just-in-time bus arbitration: a column access is granted only when its
  // data would start the moment the bus frees (lead time tCL, so CAS
  // pipelines under the in-progress transfer).  Congested traffic keeps
  // waiting in the FR-FCFS queue, where it stays reorderable, instead of
  // piling up in a deep FIFO reservation.
  if (bus_free_at_ > now + t_cl_ || bus_ready_.empty()) return;

  // Note: a MISE/ASM priority epoch grants priority at *issue* (the
  // memory-controller decision the CPU models describe); data already
  // committed to the bus pipeline keeps its order.  This is precisely why
  // the paper finds such epochs unable to isolate a GPU application — the
  // co-runners' dense in-flight traffic keeps being served.
  InFlight f = bus_ready_.front();
  bus_ready_.pop_front();

  const Cycle lead_start = std::max(bus_free_at_, now);
  const Cycle data_start = std::max(bus_free_at_, now + t_cl_);
  // A transfer out of a freshly activated row pays an extra bus bubble, so
  // useful bandwidth at saturation degrades with the row-miss ratio.
  const Cycle overhead = t_bus_gap_ + (f.row_hit ? 0 : t_miss_bubble_);
  bus_free_at_ = data_start + t_burst_ + overhead;
  f.complete_at = data_start + t_burst_;
  counters_.bus_data_cycles.add(f.cmd.app, t_burst_);
  // The column-access lead-in (when starting from an idle bus), the
  // post-burst turnaround gap and miss bubbles are timing overhead:
  // Fig. 2b's "wasted" BW.
  counters_.wasted_cycles.add((data_start - lead_start) + overhead);
  inflight_.push_back(f);
}

void MemoryController::finish_preps(Cycle now) {
  for (u32 m = preparing_mask_; m != 0; m &= m - 1) {
    const int b = std::countr_zero(m);
    Bank& bank = banks_[b];
    if (bank.prep_done > now) continue;
    preparing_mask_ &= ~(1u << b);
    bank.row_open = true;
    bank.open_row = bank.pending.row;
    queue_.set_open_row(b, true, bank.open_row);
    bus_ready_.push_back(
        InFlight{0, bank.prep_issue_start, /*row_hit=*/false, bank.pending});
  }
}

void MemoryController::issue_one(Cycle now) {
  // FR-FCFS over the shared queue: the oldest row-buffer hit (to a bank
  // that is not re-preparing) wins; otherwise the oldest row miss whose
  // bank is free starts its activation.  Requests drain into the committed
  // stages only while they have headroom, keeping the rest reorderable.
  //
  // MISE/ASM epochs: the priority application wins every issue slot while
  // it has requests queued.  Crucially — and this is the paper's critique
  // of porting these CPU models to GPUs — other applications still issue
  // whenever the priority app has nothing queued, and their already
  // in-flight requests keep occupying banks and the bus, so the epochs do
  // not actually observe alone behaviour.
  const u32 banks = issuable_banks();
  if (banks == 0) return;
  const AppId only_app =
      priority_app_ != kInvalidApp && queued_mask_[priority_app_] != 0
          ? priority_app_
          : kInvalidApp;
  const std::optional<FrFcfsQueue::Pick> pick =
      queue_.pop_pick(banks, only_app);
  SIM_INVARIANT(pick.has_value(), "mem.dram",
                "issuable bank without an eligible queued command");
  const DramCmd cmd = pick->cmd;
  const bool row_hit = pick->row_hit;
  if (--queued_per_bank_app_[cmd.bank][cmd.app] == 0) {
    queued_mask_[cmd.app] &= ~(1u << cmd.bank);
  }
  if (exec_per_bank_app_[cmd.bank][cmd.app]++ == 0) {
    exec_mask_[cmd.app] |= 1u << cmd.bank;
  }

  Bank& bank = banks_[cmd.bank];
  if (row_hit) {
    counters_.row_hits.add(cmd.app);
    bus_ready_.push_back(InFlight{0, now, /*row_hit=*/true, cmd});
  } else {
    counters_.row_misses.add(cmd.app);
    // Eq. 10 extra-row-buffer-miss detection: this application re-activates
    // the same row it touched last in this bank — a co-runner closed it.
    const std::size_t lr =
        static_cast<std::size_t>(cmd.app) * cfg_.banks_per_mc + cmd.bank;
    if ((last_row_valid_[cmd.app] >> cmd.bank & 1u) != 0 &&
        last_row_[lr] == cmd.row) {
      counters_.erb_miss.add(cmd.app);
    }
    preparing_mask_ |= 1u << cmd.bank;
    bank.pending = cmd;
    bank.prep_issue_start = now;
    bank.prep_done = now + (bank.row_open ? t_rp_ : 0) + t_rcd_;
    bank.row_open = false;
    queue_.set_open_row(cmd.bank, false, 0);
  }
  last_row_[static_cast<std::size_t>(cmd.app) * cfg_.banks_per_mc +
            cmd.bank] = cmd.row;
  last_row_valid_[cmd.app] |= 1u << cmd.bank;
}

void MemoryController::account_cycle(Cycle now) { skip_cycles(now, 1); }

void MemoryController::skip_cycles(Cycle now, Cycle n) {
  // Bandwidth decomposition: data and turnaround-gap cycles are attributed
  // in lump sums at bus-grant time; classify only bus-idle cycles here.
  // Every per-cycle accrual below is a pure function of state that is
  // frozen while the controller is quiet, so `n` cycles fold into one lump.
  // The `bus_free_at_ <= now` test is uniform across the lump because
  // next_event_after() never lets a skip run past bus_free_at_.
  if (bus_free_at_ <= now) {
    const bool any_work = !queue_.empty() || !inflight_.empty() ||
                          !bus_ready_.empty() || preparing_mask_ != 0;
    if (any_work) {
      counters_.wasted_cycles.add(n);
    } else {
      counters_.idle_cycles.add(n);
    }
  }

  // DASE per-cycle BLP integration (Eq. 9 / Eq. 14 inputs) and the MISE/ASM
  // priority-cycle clock.
  for (AppId a = 0; a < num_apps_; ++a) {
    if (outstanding_[a] > 0) {
      counters_.blp_time.add(a, n);
      counters_.blp_occupancy_int.add(
          a, n * std::popcount(queued_mask_[a] | exec_mask_[a]));
      counters_.blp_access_int.add(a, n * std::popcount(exec_mask_[a]));
    }
  }
  if (priority_app_ != kInvalidApp) {
    counters_.priority_cycles.add(priority_app_, n);
  } else {
    counters_.nonpriority_cycles.add(n);
  }
}

}  // namespace gpusim
