// DRAM memory controller: FR-FCFS scheduling over banked DRAM with
// open-page row-buffer policy and a shared data bus (paper Table II:
// FR-FCFS, 16 banks/MC, 924MHz, tRP = tRCD = 12).
//
// The controller keeps one *shared* request queue per memory controller
// (as GPGPU-Sim does): each cycle it issues at most one command, picking
// the oldest row-buffer hit whose bank is free, falling back to the oldest
// request with a free bank.  This is what produces the paper's asymmetric
// inter-application interference — an application with long row-hit chains
// and many outstanding requests captures both the queue slots and the
// scheduler's row-hit preference, while an irregular application's
// requests wait and pay activate/precharge on nearly every access.
//
// The queue is one FR-FCFS queue, stored as per-bank lists in arrival
// order (FrFcfsQueue), so a pick costs the candidate banks rather than the
// queue depth, and quiet_at() knows exactly whether anything can issue.
// Preparing banks are a bitmask, so prep retirement and the next-prep bound
// visit only the banks preparing.
//
// Besides simulating timing, the controller integrates — per cycle — the
// hardware counters the DASE model reads (paper Table I): per-application
// BLP / BLPAccess occupancy, extra-row-buffer-miss events against the
// per-bank last-row registers, served-request counts and aggregate
// in-bank service time.  It also decomposes data-bus occupancy into
// per-application / wasted / idle shares for the Fig. 2b analysis, and
// supports the highest-priority-application epochs MISE and ASM rely on.
#pragma once

#include <array>
#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/simstate.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace gpusim {

/// A DRAM command: one cache-line read mapped to (bank, row).
struct DramCmd {
  u64 line_addr = 0;
  AppId app = kInvalidApp;
  int bank = 0;
  u64 row = 0;
  Cycle enqueued = 0;
};

template <typename Sink>
void write_item(Sink& s, const DramCmd& c) {
  s.put_u64(c.line_addr);
  s.put_i32(c.app);
  s.put_i32(c.bank);
  s.put_u64(c.row);
  s.put_u64(c.enqueued);
}
inline void read_item(StateReader& r, DramCmd& c) {
  c.line_addr = r.get_u64();
  c.app = r.get_i32();
  c.bank = r.get_i32();
  c.row = r.get_u64();
  c.enqueued = r.get_u64();
}

/// The shared FR-FCFS request queue, indexed per bank in arrival order.
/// Slots are threaded into one list per bank and stamped with a sequence
/// number; the queue mirrors each bank's open row and counts the queued
/// commands on it, so a pick visits the banks that hold row hits, walking
/// each only to its oldest hit, and otherwise only the head of each
/// candidate bank.  Slot storage grows to the deepest queue seen and is
/// then reused.
class FrFcfsQueue {
 public:
  explicit FrFcfsQueue(int num_banks) : banks_(num_banks) {}

  struct Pick {
    DramCmd cmd;
    bool row_hit = false;
  };

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void push(const DramCmd& cmd);
  /// Empties the queue; the banks' open rows are kept.
  void clear();

  /// Records that `bank` now has `row` open (`open`) or no row open.
  void set_open_row(int bank, bool open, u64 row);

  /// Removes and returns the command FR-FCFS issues: among the commands
  /// queued to a bank in `candidate_banks` (banks not preparing a row) —
  /// only `only_app`'s unless it is kInvalidApp — the oldest on its bank's
  /// open row, else the oldest.  Returns nothing when no command qualifies.
  std::optional<Pick> pop_pick(u32 candidate_banks, AppId only_app);

  /// The queued commands, oldest first.
  std::vector<DramCmd> in_arrival_order() const;

 private:
  struct Slot {
    DramCmd cmd;
    u64 seq = 0;
    int next = -1;  ///< next slot of the same bank, or the next free slot
  };
  struct Bank {
    int head = -1;
    int tail = -1;
    bool row_open = false;
    u64 open_row = 0;
    int hits = 0;  ///< queued commands on the open row
  };
  bool is_hit(const Bank& bank, const DramCmd& cmd) const {
    return bank.row_open && bank.open_row == cmd.row;
  }
  void unlink(int slot, int prev);

  std::vector<Slot> slots_;
  std::vector<Bank> banks_;
  u32 hit_banks_ = 0;  ///< banks whose `hits` is non-zero
  int free_slot_ = -1;
  int size_ = 0;
  u64 next_seq_ = 0;
};

/// Scalar counter with interval-snapshot semantics.
class SnapCounter {
 public:
  void add(u64 delta = 1) { total_ += delta; }
  u64 total() const { return total_; }
  u64 interval() const { return total_ - snap_; }
  void snapshot() { snap_ = total_; }
  void reset() { total_ = snap_ = 0; }

  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_u64(total_);
    s.put_u64(snap_);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    total_ = r.get_u64();
    snap_ = r.get_u64();
  }

 private:
  u64 total_ = 0;
  u64 snap_ = 0;
};

/// Counters exported by one memory controller.
struct McCounters {
  // --- DASE Table I counters ---
  PerAppCounter blp_occupancy_int;  ///< Σ_cycles |banks executing or queued for app|
  PerAppCounter blp_access_int;     ///< Σ_cycles |banks executing app|
  PerAppCounter blp_time;           ///< cycles with ≥1 outstanding request
  PerAppCounter erb_miss;           ///< extra row-buffer misses (Eq. 10)
  PerAppCounter requests_served;    ///< Request_i
  PerAppCounter bank_service_time;  ///< Time_request_i (Eq. 12 numerator)
  PerAppCounter row_hits;           ///< requests served out of an open row
  PerAppCounter row_misses;         ///< requests paying ACT (and maybe PRE)
  // --- bandwidth decomposition (Fig. 2b) ---
  PerAppCounter bus_data_cycles;  ///< data-transfer cycles per app
  SnapCounter wasted_cycles;      ///< bus idle while timing work in flight
  SnapCounter idle_cycles;        ///< bus idle, no DRAM work at all
  // --- MISE/ASM priority-epoch accounting ---
  PerAppCounter priority_served;  ///< requests served while app had priority
  PerAppCounter priority_cycles;  ///< cycles the app held priority
  PerAppCounter nonpriority_served;  ///< requests served with no priority set
  SnapCounter nonpriority_cycles;    ///< cycles with no priority app

  template <typename Sink>
  void write_state(Sink& s) const {
    blp_occupancy_int.write_state(s);
    blp_access_int.write_state(s);
    blp_time.write_state(s);
    erb_miss.write_state(s);
    requests_served.write_state(s);
    bank_service_time.write_state(s);
    row_hits.write_state(s);
    row_misses.write_state(s);
    bus_data_cycles.write_state(s);
    wasted_cycles.write_state(s);
    idle_cycles.write_state(s);
    priority_served.write_state(s);
    priority_cycles.write_state(s);
    nonpriority_served.write_state(s);
    nonpriority_cycles.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    blp_occupancy_int.load(r);
    blp_access_int.load(r);
    blp_time.load(r);
    erb_miss.load(r);
    requests_served.load(r);
    bank_service_time.load(r);
    row_hits.load(r);
    row_misses.load(r);
    bus_data_cycles.load(r);
    wasted_cycles.load(r);
    idle_cycles.load(r);
    priority_served.load(r);
    priority_cycles.load(r);
    nonpriority_served.load(r);
    nonpriority_cycles.load(r);
  }

  void snapshot_all() {
    blp_occupancy_int.snapshot();
    blp_access_int.snapshot();
    blp_time.snapshot();
    erb_miss.snapshot();
    requests_served.snapshot();
    bank_service_time.snapshot();
    row_hits.snapshot();
    row_misses.snapshot();
    bus_data_cycles.snapshot();
    wasted_cycles.snapshot();
    idle_cycles.snapshot();
    priority_served.snapshot();
    priority_cycles.snapshot();
    nonpriority_served.snapshot();
    nonpriority_cycles.snapshot();
  }
};

class MemoryController {
 public:
  MemoryController(const GpuConfig& cfg, int num_apps);

  /// Attempts to enqueue a command into the shared request queue.  Returns
  /// false when the queue is full (caller must stall and retry) — finite,
  /// shared buffering is itself an interference channel: a flooding
  /// application crowds out a sparse one.
  bool try_enqueue(const DramCmd& cmd);

  bool queue_full() const { return queue_.size() >= queue_capacity_; }

  /// Advances one cycle.  Completed commands are appended to `completed`.
  void cycle(Cycle now, std::vector<DramCmd>& completed);

  /// Gives `app`'s requests absolute FR-FCFS priority (kInvalidApp clears).
  /// Used by the MISE/ASM estimation epochs.
  void set_priority_app(AppId app) { priority_app_ = app; }
  AppId priority_app() const { return priority_app_; }

  McCounters& counters() { return counters_; }
  const McCounters& counters() const { return counters_; }

  int outstanding(AppId app) const { return outstanding_[app]; }
  int total_outstanding() const {
    int sum = 0;
    for (int a = 0; a < num_apps_; ++a) sum += outstanding_[a];
    return sum;
  }

  // Structural introspection (tests, diagnostics).
  int queue_size() const { return queue_.size(); }
  int bus_ready_size() const { return static_cast<int>(bus_ready_.size()); }
  int inflight_size() const { return static_cast<int>(inflight_.size()); }
  int preparing_banks() const { return std::popcount(preparing_mask_); }

  // --- Activity-engine support -------------------------------------------
  // A controller is *quiet* at `now` when cycle(now, …) would change no
  // state other than the per-cycle counter accruals in account_cycle():
  // nothing retires, the bus grants nothing, no prep finishes, and nothing
  // can issue.  While quiet, those accruals are a pure function of frozen
  // state, so a run of quiet cycles can be applied in one skip_cycles()
  // lump.  next_event_after() bounds how long the controller stays quiet.

  /// True when cycle(now, …) would be a pure-accounting no-op.
  bool quiet_at(Cycle now) const {
    if (!inflight_.empty() && inflight_.front().complete_at <= now)
      return false;
    if (!bus_ready_.empty() && bus_free_at_ <= now + t_cl_) return false;
    if (preparing_mask_ != 0 && next_prep_done() <= now) return false;
    return issuable_banks() == 0;
  }

  /// Earliest future cycle at which a quiet controller may act again, or at
  /// which account_cycle()'s per-cycle classification changes (the bus-idle
  /// split flips when `bus_free_at_` passes).  kNeverCycle when fully
  /// drained.  Only meaningful when quiet_at(now) holds.
  Cycle next_event_after(Cycle now) const {
    Cycle next = kNeverCycle;
    if (!inflight_.empty()) {
      next = std::min(next, inflight_.front().complete_at);
    }
    if (!bus_ready_.empty()) {
      next = std::min(next, bus_free_at_ - t_cl_);  // quiet ⇒ > now
    }
    if (preparing_mask_ != 0) next = std::min(next, next_prep_done());
    if (bus_free_at_ > now) next = std::min(next, bus_free_at_);
    return next;
  }

  /// Applies `n` cycles' worth of account_cycle() in one lump.  Valid only
  /// while quiet_at(now) holds for every cycle in [now, now + n) — i.e.
  /// `now + n <= next_event_after(now)`.
  void skip_cycles(Cycle now, Cycle n);

  // SimState: banks, queues, in-flight pipeline, bus timing, occupancy
  // bookkeeping, last-row registers, counters.  Config/timings/geometry are
  // construction-time and excluded.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("DRAM");
    for (int b = 0; b < static_cast<int>(banks_.size()); ++b) {
      const Bank& bank = banks_[b];
      s.put_bool(bank.row_open);
      s.put_u64(bank.open_row);
      s.put_bool(((preparing_mask_ >> b) & 1u) != 0);
      write_item(s, bank.pending);
      s.put_u64(bank.prep_done);
      s.put_u64(bank.prep_issue_start);
    }
    s.put_i32(std::popcount(preparing_mask_));
    s.put_u64(static_cast<u64>(queue_.size()));
    for (const DramCmd& c : queue_.in_arrival_order()) write_item(s, c);
    auto put_inflight = [&s](const Ring<InFlight>& dq) {
      s.put_u64(dq.size());
      for (const InFlight& f : dq) {
        s.put_u64(f.complete_at);
        s.put_u64(f.issue_start);
        s.put_bool(f.row_hit);
        write_item(s, f.cmd);
      }
    };
    put_inflight(bus_ready_);
    put_inflight(inflight_);
    s.put_i32(priority_app_);
    s.put_u64(bus_free_at_);
    for (u32 v : queued_mask_) s.put_u32(v);
    for (u32 v : exec_mask_) s.put_u32(v);
    for (int v : outstanding_) s.put_i32(v);
    for (const auto& per_bank : queued_per_bank_app_) {
      for (u16 v : per_bank) s.put_u32(v);
    }
    for (const auto& per_bank : exec_per_bank_app_) {
      for (u16 v : per_bank) s.put_u32(v);
    }
    for (u64 v : last_row_) s.put_u64(v);
    for (u32 v : last_row_valid_) s.put_u32(v);
    counters_.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("DRAM");
    preparing_mask_ = 0;
    for (int b = 0; b < static_cast<int>(banks_.size()); ++b) {
      Bank& bank = banks_[b];
      bank.row_open = r.get_bool();
      bank.open_row = r.get_u64();
      queue_.set_open_row(b, bank.row_open, bank.open_row);
      if (r.get_bool()) preparing_mask_ |= 1u << b;
      read_item(r, bank.pending);
      bank.prep_done = r.get_u64();
      bank.prep_issue_start = r.get_u64();
    }
    SIM_CHECK(r.get_i32() == std::popcount(preparing_mask_),
              SimError(SimErrorKind::kSnapshot, "mem.dram",
                       "preparing-bank count disagrees with the bank flags"));
    queue_.clear();
    const u64 qn = r.get_count(static_cast<u64>(queue_capacity_), "dram queue");
    for (u64 i = 0; i < qn; ++i) {
      DramCmd c;
      read_item(r, c);
      SIM_CHECK(c.bank >= 0 && c.bank < static_cast<int>(banks_.size()) &&
                    c.app >= 0 && c.app < num_apps_,
                SimError(SimErrorKind::kSnapshot, "mem.dram",
                         "queued DRAM command names a nonexistent bank or "
                         "application")
                    .detail("bank", c.bank)
                    .detail("app", c.app));
      queue_.push(c);
    }
    auto get_inflight = [&r](Ring<InFlight>& dq) {
      dq.clear();
      const u64 n = r.get_count(1u << 16, "dram inflight");
      for (u64 i = 0; i < n; ++i) {
        InFlight f;
        f.complete_at = r.get_u64();
        f.issue_start = r.get_u64();
        f.row_hit = r.get_bool();
        read_item(r, f.cmd);
        dq.push_back(f);
      }
    };
    get_inflight(bus_ready_);
    get_inflight(inflight_);
    priority_app_ = r.get_i32();
    bus_free_at_ = r.get_u64();
    for (u32& v : queued_mask_) v = r.get_u32();
    for (u32& v : exec_mask_) v = r.get_u32();
    for (int& v : outstanding_) v = r.get_i32();
    for (auto& per_bank : queued_per_bank_app_) {
      for (u16& v : per_bank) v = static_cast<u16>(r.get_u32());
    }
    for (auto& per_bank : exec_per_bank_app_) {
      for (u16& v : per_bank) v = static_cast<u16>(r.get_u32());
    }
    for (u64& v : last_row_) v = r.get_u64();
    for (u32& v : last_row_valid_) v = r.get_u32();
    counters_.load(r);
  }

 private:
  /// A bank is only *occupied* while preparing a row (precharge +
  /// activate); preparing_mask_ holds that.  Column accesses to an open
  /// row pipeline through the shared data bus — consecutive row hits to
  /// the same bank stream back-to-back, as on real GDDR.
  struct Bank {
    bool row_open = false;
    u64 open_row = 0;
    DramCmd pending;  ///< the miss being prepared, while the bank prepares
    Cycle prep_done = 0;
    Cycle prep_issue_start = 0;
  };

  /// A request whose column access has been scheduled on the data bus.
  struct InFlight {
    Cycle complete_at = 0;
    Cycle issue_start = 0;
    bool row_hit = false;
    DramCmd cmd;
  };

  /// Requests drain from the queue into the committed stages (bank prep +
  /// bus-ready) only while those hold fewer than this many requests, so
  /// congested traffic keeps waiting in the reorderable FR-FCFS queue —
  /// where row-buffer hits retain their scheduling preference — instead of
  /// piling up in a FIFO bus reservation.
  static constexpr int kMaxCommitted = 8;

  void retire_inflight(Cycle now, std::vector<DramCmd>& completed);
  void grant_bus(Cycle now);
  void finish_preps(Cycle now);
  void issue_one(Cycle now);
  void account_cycle(Cycle now);

  Cycle next_prep_done() const {
    Cycle next = kNeverCycle;
    for (u32 m = preparing_mask_; m != 0; m &= m - 1) {
      next = std::min(next, banks_[std::countr_zero(m)].prep_done);
    }
    return next;
  }

  /// Banks holding a command issue_one() may pick now: not preparing, with
  /// a queued command of the priority app while it has any, else of any
  /// app — or none while the committed stages are full.
  u32 issuable_banks() const {
    if (static_cast<int>(bus_ready_.size()) +
            std::popcount(preparing_mask_) >= kMaxCommitted) {
      return 0;
    }
    u32 queued = 0;
    if (priority_app_ != kInvalidApp) queued = queued_mask_[priority_app_];
    if (queued == 0) {
      for (AppId a = 0; a < num_apps_; ++a) queued |= queued_mask_[a];
    }
    return queued & ~preparing_mask_;
  }

  const GpuConfig& cfg_;
  int num_apps_;
  int queue_capacity_;
  // DRAM timings scaled to SM cycles, cached once — the per-call llround in
  // GpuConfig::t_*() is measurable on the per-cycle path.
  Cycle t_rp_, t_rcd_, t_cl_, t_burst_, t_bus_gap_, t_miss_bubble_;
  std::vector<Bank> banks_;
  u32 preparing_mask_ = 0;  ///< banks preparing a row
  FrFcfsQueue queue_;       ///< shared FR-FCFS queue
  Ring<InFlight> bus_ready_;  ///< column accesses awaiting a bus grant
  Ring<InFlight> inflight_;   ///< granted accesses, completion order
  AppId priority_app_ = kInvalidApp;

  Cycle bus_free_at_ = 0;  ///< includes post-burst bus turnaround gap

  std::array<u32, kMaxApps> queued_mask_{};  ///< banks with queued reqs of app
  std::array<u32, kMaxApps> exec_mask_{};    ///< banks executing app
  std::array<int, kMaxApps> outstanding_{};  ///< queued + in-service
  std::vector<std::array<u16, kMaxApps>> queued_per_bank_app_;
  std::vector<std::array<u16, kMaxApps>> exec_per_bank_app_;
  /// Per-(app, bank) last-row registers, flattened to app * banks_per_mc +
  /// bank, with validity as one bank bitmask per app (banks_per_mc <= 32 is
  /// SIM_CHECKed) — the old vector<vector<bool>> pair cost two dependent
  /// loads plus a bit-proxy dereference on every row-miss issue.
  std::vector<u64> last_row_;
  std::array<u32, kMaxApps> last_row_valid_{};

  McCounters counters_;
};

}  // namespace gpusim
