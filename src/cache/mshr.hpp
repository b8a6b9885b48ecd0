// Miss Status Holding Registers.
//
// Merges outstanding misses to the same cache line so only one request per
// line is in flight, and fans the response back out to every waiter.  Used
// at both cache levels: the L1 MSHR tracks waiting warps of one SM, the L2
// MSHR tracks waiting (SM, warp) pairs across SMs.
//
// Layout: occupancy is capped at max_entries, so the lines live in a dense
// entry array indexed by a fixed open-addressed table (linear probing at a
// load factor of at most one half, backward-shift deletion, 16-bit slots),
// and each line's waiters form a FIFO chain through one pooled node array
// with a free list.  The entry array and the pool grow to the largest
// occupancy seen and are then reused, so steady-state allocate/release
// allocates nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

struct MshrWaiter {
  SmId sm = kInvalidSm;
  WarpId warp = -1;
  AppId app = kInvalidApp;
};

class Mshr {
 public:
  explicit Mshr(int max_entries)
      : max_entries_(max_entries),
        index_(index_slots(max_entries), kEmptySlot),
        index_shift_(64 - std::countr_zero(index_.size())) {}

  enum class AllocResult {
    kNewMiss,   ///< First miss for this line; caller must forward a request.
    kMerged,    ///< Line already in flight; waiter recorded, no new request.
    kRejected,  ///< Structure full; caller must stall and retry.
  };

  AllocResult allocate(u64 line_addr, MshrWaiter waiter) {
    const u32 slot = find_slot(line_addr);
    if (index_[slot] != kEmptySlot) {
      append_waiter(entries_[index_[slot]], waiter);
      return AllocResult::kMerged;
    }
    if (full()) return AllocResult::kRejected;
    index_[slot] = static_cast<u16>(entries_.size());
    entries_.push_back(Entry{line_addr, kNoNode, kNoNode});
    append_waiter(entries_.back(), waiter);
    return AllocResult::kNewMiss;
  }

  /// Retires the entry for `line_addr`, handing every recorded waiter to
  /// `on_waiter` in arrival order.  The entry must exist.  The entry is
  /// gone before the first call, so `on_waiter` may allocate again.
  template <typename OnWaiter>
  void release(u64 line_addr, OnWaiter&& on_waiter) {
    const u32 slot = find_slot(line_addr);
    SIM_CHECK(index_[slot] != kEmptySlot,
              SimError(SimErrorKind::kInvariant, "cache.mshr",
                       "response for a line with no MSHR entry "
                       "(double completion?)")
                  .detail("line_addr", line_addr)
                  .detail("entries_in_flight", entries_.size()));
    u32 node = entries_[index_[slot]].head;
    erase_slot(slot);
    while (node != kNoNode) {
      const MshrWaiter waiter = pool_[node].waiter;
      const u32 next = pool_[node].next;
      pool_[node].next = free_head_;
      free_head_ = node;
      on_waiter(waiter);
      node = next;
    }
  }

  bool contains(u64 line_addr) const {
    return index_[find_slot(line_addr)] != kEmptySlot;
  }
  int in_flight() const { return static_cast<int>(entries_.size()); }
  bool full() const { return in_flight() >= max_entries_; }
  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), kEmptySlot);
    pool_.clear();
    free_head_ = kNoNode;
  }

  // SimState: entries are serialized in sorted line-address order so save and
  // hash are independent of the table's internal order.  The simulator only
  // ever looks entries up by key, so the rebuilt table's internal order
  // cannot influence behaviour; waiter order *within* a line is preserved
  // because release() fans responses out in recorded order.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("MSHR");
    std::vector<const Entry*> sorted;
    sorted.reserve(entries_.size());
    for (const Entry& e : entries_) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return a->line < b->line; });
    s.put_u64(sorted.size());
    for (const Entry* e : sorted) {
      s.put_u64(e->line);
      u64 waiters = 0;
      for (u32 n = e->head; n != kNoNode; n = pool_[n].next) ++waiters;
      s.put_u64(waiters);
      for (u32 n = e->head; n != kNoNode; n = pool_[n].next) {
        s.put_i32(pool_[n].waiter.sm);
        s.put_i32(pool_[n].waiter.warp);
        s.put_i32(pool_[n].waiter.app);
      }
    }
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("MSHR");
    clear();
    const u64 n = r.get_count(static_cast<u64>(max_entries_), "mshr entries");
    for (u64 i = 0; i < n; ++i) {
      const u64 line = r.get_u64();
      SIM_CHECK(!contains(line),
                SimError(SimErrorKind::kSnapshot, "cache.mshr",
                         "duplicate MSHR line in snapshot")
                    .detail("line_addr", line));
      const u64 waiter_count = r.get_count(1u << 20, "mshr waiters");
      SIM_CHECK(waiter_count > 0,
                SimError(SimErrorKind::kSnapshot, "cache.mshr",
                         "MSHR line with no waiter in snapshot")
                    .detail("line_addr", line));
      for (u64 k = 0; k < waiter_count; ++k) {
        MshrWaiter w;
        w.sm = r.get_i32();
        w.warp = r.get_i32();
        w.app = r.get_i32();
        allocate(line, w);
      }
    }
  }

  /// Adds the number of recorded waiters of each application to `out`
  /// (conservation audit: each waiter owes exactly one response packet).
  void count_waiters_by_app(std::array<u64, kMaxApps>& out) const {
    for (const Entry& e : entries_) {
      for (u32 n = e.head; n != kNoNode; n = pool_[n].next) {
        const AppId app = pool_[n].waiter.app;
        if (app >= 0 && app < kMaxApps) ++out[app];
      }
    }
  }

 private:
  static constexpr u16 kEmptySlot = 0xFFFF;
  static constexpr u32 kNoNode = 0xFFFFFFFF;

  struct Entry {
    u64 line;
    u32 head;  ///< first waiter node (arrival order)
    u32 tail;  ///< last waiter node
  };
  struct WaiterNode {
    MshrWaiter waiter;
    u32 next;
  };

  /// Table size for `max_entries` lines: a power of two, at least twice it.
  static std::size_t index_slots(int max_entries) {
    SIM_CHECK(max_entries > 0 && max_entries < kEmptySlot,
              SimError(SimErrorKind::kConfig, "cache.mshr",
                       "MSHR entry count must be in [1, 65534]")
                  .detail("max_entries", max_entries));
    return std::bit_ceil(2 * static_cast<std::size_t>(max_entries));
  }

  u32 home_slot(u64 line_addr) const {
    return static_cast<u32>((line_addr * 0x9E3779B97F4A7C15ULL) >>
                            index_shift_);
  }
  u32 next_slot(u32 slot) const {
    return (slot + 1) & static_cast<u32>(index_.size() - 1);
  }

  /// The slot holding `line_addr`, or the empty slot that ends its probe.
  u32 find_slot(u64 line_addr) const {
    u32 slot = home_slot(line_addr);
    while (index_[slot] != kEmptySlot &&
           entries_[index_[slot]].line != line_addr) {
      slot = next_slot(slot);
    }
    return slot;
  }

  void append_waiter(Entry& e, MshrWaiter waiter) {
    u32 node = free_head_;
    if (node != kNoNode) {
      free_head_ = pool_[node].next;
      pool_[node] = WaiterNode{waiter, kNoNode};
    } else {
      node = static_cast<u32>(pool_.size());
      pool_.push_back(WaiterNode{waiter, kNoNode});
    }
    if (e.head == kNoNode) {
      e.head = node;
    } else {
      pool_[e.tail].next = node;
    }
    e.tail = node;
  }

  /// Removes the entry indexed from `slot`: the last dense entry moves into
  /// its place, and the probe run after `slot` shifts back so every line
  /// stays reachable from its home slot without tombstones.
  void erase_slot(u32 slot) {
    const u16 victim = index_[slot];
    const u16 last = static_cast<u16>(entries_.size() - 1);
    if (victim != last) {
      index_[find_slot(entries_[last].line)] = victim;
      entries_[victim] = entries_[last];
    }
    entries_.pop_back();
    u32 hole = slot;
    for (u32 probe = next_slot(hole); index_[probe] != kEmptySlot;
         probe = next_slot(probe)) {
      const u32 home = home_slot(entries_[index_[probe]].line);
      // Move the entry back when its home does not lie cyclically in
      // (hole, probe]: the hole would otherwise cut its probe path.
      const u32 mask = static_cast<u32>(index_.size() - 1);
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        index_[hole] = index_[probe];
        hole = probe;
      }
    }
    index_[hole] = kEmptySlot;
  }

  int max_entries_;
  std::vector<u16> index_;  ///< open-addressed slots -> entries_ position
  int index_shift_;
  std::vector<Entry> entries_;
  std::vector<WaiterNode> pool_;
  u32 free_head_ = kNoNode;
};

}  // namespace gpusim
