// Streaming Multiprocessor model.
//
// Each SM runs thread blocks of exactly one application (spatial
// multitasking partitions whole SMs).  Per cycle it issues at most one warp
// instruction, selected greedy-then-oldest; memory instructions generate
// coalesced line transactions that probe the private L1 and, on miss,
// travel through the crossbar to a shared memory partition.  Warps block
// until all their transactions respond — surviving warps supply the
// thread-level parallelism that hides memory latency, and the cycles where
// no warp can issue while at least one waits on memory form the stall
// fraction α the DASE model consumes (paper Eq. 15).
#pragma once

#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/audit.hpp"
#include "common/bounded_queue.hpp"
#include "common/config.hpp"
#include "common/flight_recorder.hpp"
#include "common/sim_error.hpp"
#include "common/stats.hpp"
#include "kernels/address_stream.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"  // SnapCounter
#include "mem/request.hpp"
#include "sm/block_source.hpp"

namespace gpusim {

struct SmCounters {
  SnapCounter instructions;      ///< warp instructions issued
  SnapCounter mem_stall_cycles;  ///< no issue while ≥1 warp waits on memory
  SnapCounter issue_cycles;      ///< cycles with an instruction issued
  SnapCounter idle_cycles;       ///< no resident live warps
  SnapCounter mem_instructions;  ///< memory instructions issued
  SnapCounter l1_accesses;
  SnapCounter l1_hits;

  template <typename Sink>
  void write_state(Sink& s) const {
    instructions.write_state(s);
    mem_stall_cycles.write_state(s);
    issue_cycles.write_state(s);
    idle_cycles.write_state(s);
    mem_instructions.write_state(s);
    l1_accesses.write_state(s);
    l1_hits.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    instructions.load(r);
    mem_stall_cycles.load(r);
    issue_cycles.load(r);
    idle_cycles.load(r);
    mem_instructions.load(r);
    l1_accesses.load(r);
    l1_hits.load(r);
  }

  void snapshot_all() {
    instructions.snapshot();
    mem_stall_cycles.snapshot();
    issue_cycles.snapshot();
    idle_cycles.snapshot();
    mem_instructions.snapshot();
    l1_accesses.snapshot();
    l1_hits.snapshot();
  }
};

class SmCore {
 public:
  SmCore(const GpuConfig& cfg, SmId id, const AddressMap& address_map);

  /// Assigns this SM to an application.  The SM must be unassigned or
  /// fully drained.  `now` stamps the initial block-dispatch events
  /// (construction-time assignment happens at cycle 0).
  void assign(BlockSource* source, Cycle now = 0);

  /// Stops fetching new thread blocks; resident work runs to completion
  /// (the paper's "SM draining" migration primitive).
  void start_drain() { draining_ = true; }
  /// Cancels a drain whose repartition request was superseded.
  void cancel_drain() { draining_ = false; }
  bool draining() const { return draining_; }

  /// True when no resident warps, no in-flight memory traffic, and no
  /// queued outbound packets remain.
  bool drained() const;

  /// Detaches from the current application (requires drained()), clearing
  /// the L1 as a real kernel switch would.
  void release();

  /// One core cycle: matures L1 hits, dispatches pending transactions,
  /// issues at most one warp instruction, and refills free block slots.
  void cycle(Cycle now);

  /// Delivers a memory response from the interconnect.
  void receive(const MemResponsePacket& resp);

  BoundedQueue<MemRequestPacket>& out_queue() { return out_queue_; }
  const BoundedQueue<MemRequestPacket>& out_queue() const {
    return out_queue_;
  }

  /// Optional per-application instruction counter (owned by the GPU) that
  /// issue() also increments, so per-app IPC survives SM reassignment.
  void set_instr_sink(PerAppCounter* sink) { instr_sink_ = sink; }

  /// Optional SimGuard conservation taps (owned by the GPU): every packet
  /// pushed into the out queue is counted as a sent request.
  void set_taps(ConservationTaps* taps) { taps_ = taps; }

  /// Optional black-box flight recorder (owned by the GPU): block
  /// dispatches are recorded into it.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  /// Warps currently blocked on outstanding memory transactions.
  int waiting_warps() const { return std::popcount(waiting_mask_); }

  // --- Activity-engine support -------------------------------------------

  /// True when cycle(now) would change nothing but the stall/idle counters:
  /// no L1 hit matures, no warp can issue, no outbound packet waits, and no
  /// transaction dispatches — either none is pending, or the head one
  /// misses the L1, has no in-flight miss to merge with, and waits for an
  /// entry of the full L1 MSHR, which only a response (whose arrival wakes
  /// the SM) can free.  (refill_blocks() is a stable no-op in this state:
  /// it ran to saturation at the end of the previous cycle and no
  /// SM-visible input changed since.)  The warp masks make this O(1).
  bool quiet_at(Cycle now) const {
    if (ready_mask_ != 0 || !out_queue_.empty() ||
        (!local_hits_.empty() && local_hits_.front().first <= now)) {
      return false;
    }
    if (pending_txns_.empty()) return true;
    const u64 head = pending_txns_.front().addr;
    return l1_mshr_.full() && !l1_mshr_.contains(head) && !l1_.probe(head);
  }

  /// Earliest future cycle at which this core acts on its own (an L1 hit
  /// maturing); responses arriving via the interconnect are the caller's
  /// events.  kNeverCycle when nothing is scheduled.
  Cycle next_local_event() const {
    return local_hits_.empty() ? kNeverCycle : local_hits_.front().first;
  }

  /// Earliest cycle a quiet core must be processed again, given its
  /// response delivery queue: the next local event or the head response's
  /// maturity, whichever comes first.  Only meaningful right after a
  /// cycle() that left the core quiet_at() — the activity engine's sleep
  /// bound (later crossbar deliveries wake the core explicitly).
  Cycle wake_after(const BoundedQueue<MemResponsePacket>& resp_in) const {
    Cycle next = next_local_event();
    if (!resp_in.empty() && resp_in.front().ready < next) {
      next = resp_in.front().ready;
    }
    return next;
  }

  /// Applies `n` quiet cycles' worth of the issue-stage stall/idle
  /// accounting in one lump.  Valid only while quiet_at() holds throughout.
  void skip_cycles(Cycle n) {
    if (waiting_mask_ != 0) {
      counters_.mem_stall_cycles.add(n);
    } else if (ready_mask_ == 0) {
      counters_.idle_cycles.add(n);
    }
  }

  AppId app() const { return source_ != nullptr ? source_->app() : kInvalidApp; }
  bool assigned() const { return source_ != nullptr; }
  SmId id() const { return id_; }
  SmCounters& counters() { return counters_; }
  const SmCounters& counters() const { return counters_; }
  const SetAssocCache& l1() const { return l1_; }

  /// Resident thread blocks currently executing (TB_shared of Eq. 24).
  int active_blocks() const { return active_blocks_; }
  int live_warps() const {
    return std::popcount(ready_mask_ | waiting_mask_);
  }

  // --- SimState ----------------------------------------------------------
  // The caller (Gpu) serializes which application this SM is assigned to
  // and passes the resolved BlockSource back into load(); everything else —
  // warps, blocks, pipeline queues, L1, MSHR, counters — round-trips here.
  // Warp AddressStreams are reconstructed from (profile, app, seed, block)
  // and then overwritten with their saved RNG state; blocks_ must therefore
  // be restored before warps_ (each stream points at its block's shared
  // cursor).  The warp masks and the block count are rebuilt from the warp
  // and block states; the ready-warp count is written as a cross-check.
  // addr_scratch_ is per-instruction scratch, dead between cycles.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("SMCR");
    s.put_bool(draining_);
    s.put_i32(last_issued_);
    s.put_i32(std::popcount(ready_mask_));
    for (const BlockSlot& b : blocks_) {
      s.put_bool(b.active);
      s.put_u64(b.block_index);
      s.put_i32(b.warps_remaining);
      s.put_u64(b.stream.base_line);
      s.put_u64(b.stream.cursor);
    }
    for (const WarpCtx& w : warps_) {
      s.put_u8(static_cast<u8>(w.state));
      s.put_u64(w.instrs_done);
      s.put_u64(w.budget);
      s.put_u64(w.compute_remaining);
      s.put_i32(w.outstanding);
      s.put_i32(w.block_slot);
      s.put_bool(w.stream.has_value());
      if (w.stream.has_value()) w.stream->write_state(s);
    }
    s.put_u64(pending_txns_.size());
    for (const PendingTxn& t : pending_txns_) {
      s.put_i32(t.warp);
      s.put_u64(t.addr);
    }
    s.put_u64(local_hits_.size());
    for (const auto& [ready, warp] : local_hits_) {
      s.put_u64(ready);
      s.put_i32(warp);
    }
    l1_.write_state(s);
    l1_mshr_.write_state(s);
    out_queue_.write_state(s);
    counters_.write_state(s);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r, BlockSource* source);

 private:
  struct WarpCtx {
    enum class State : u8 { kUnused, kReady, kWaitingMem, kDone };
    State state = State::kUnused;
    u64 instrs_done = 0;
    u64 budget = 0;
    u64 compute_remaining = 0;
    int outstanding = 0;
    int block_slot = -1;
    std::optional<AddressStream> stream;
  };

  struct BlockSlot {
    bool active = false;
    u64 block_index = 0;
    int warps_remaining = 0;
    BlockStream stream;  ///< sequential front shared by the block's warps
  };

  struct PendingTxn {
    WarpId warp;
    u64 addr;
  };

  void refill_blocks(Cycle now);
  void dispatch_pending(Cycle now);
  void issue(Cycle now);
  void complete_txn(WarpId warp);
  void retire_warp(WarpId warp);
  int max_concurrent_blocks() const;

  const GpuConfig& cfg_;
  SmId id_;
  const AddressMap& address_map_;
  BlockSource* source_ = nullptr;
  bool draining_ = false;

  std::vector<WarpCtx> warps_;
  std::vector<BlockSlot> blocks_;
  Ring<PendingTxn> pending_txns_;
  Ring<std::pair<Cycle, WarpId>> local_hits_;  // (ready, warp), FIFO

  SetAssocCache l1_;
  Mshr l1_mshr_;
  BoundedQueue<MemRequestPacket> out_queue_;

  WarpId last_issued_ = -1;
  /// Bit w set while warps_[w] is in State::kReady / State::kWaitingMem,
  /// maintained at every state transition so issue(), quiet_at() and the
  /// occupancy queries need no warp scan (GpuConfig caps the SM at 64
  /// warp contexts).
  u64 ready_mask_ = 0;
  u64 waiting_mask_ = 0;
  int active_blocks_ = 0;
  /// max_concurrent_blocks() of the current source, cached at assign/load.
  int block_limit_ = 0;
  std::vector<u64> addr_scratch_;
  SmCounters counters_;
  PerAppCounter* instr_sink_ = nullptr;
  ConservationTaps* taps_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace gpusim
