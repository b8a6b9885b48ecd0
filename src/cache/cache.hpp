// Set-associative write-allocate cache with true-LRU replacement.
//
// Used for both the per-SM L1 data caches and the per-partition shared L2
// slices (paper Table II: 16KB 4-way L1, 128KB 8-way L2 slice, 128B lines).
// Lines carry the owning application id so shared-cache contention (who
// evicted whom) can be observed — the interference source DASE's ELLCMiss
// counter and the ASM baseline's ATD correction both target.
#pragma once

#include <cassert>
#include <vector>

#include "common/simstate.hpp"
#include "common/types.hpp"

namespace gpusim {

struct CacheAccessResult {
  bool hit = false;
  /// Valid line was evicted to make room (only meaningful on a miss).
  bool evicted = false;
  /// Application that owned the evicted line (kInvalidApp when !evicted).
  AppId victim_app = kInvalidApp;
};

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 evictions = 0;
  /// Evictions where the victim line belonged to a different application —
  /// the raw inter-application cache interference events.
  u64 cross_app_evictions = 0;
};

class SetAssocCache {
 public:
  /// `num_sets` and `assoc` define geometry; `line_bytes` must be a power
  /// of two of at least 32, which leaves a line address five spare high bits.
  SetAssocCache(int num_sets, int assoc, int line_bytes);

  /// Looks up `addr`; on miss, allocates the line (LRU victim) for `app`.
  /// Allocate-on-miss semantics — used by the ATD shadow directories, where
  /// the alone-cache contents must be updated immediately.
  CacheAccessResult access(u64 addr, AppId app);

  /// Demand lookup used with fill-on-response: on hit, touches LRU and
  /// returns true; on miss, records the miss but does NOT allocate (the
  /// line is installed later via fill(), after the memory system responds).
  bool lookup_touch(u64 addr, AppId app);

  /// Installs `addr` on response arrival.  Does not count as an access in
  /// stats (the demand lookup already did); evictions are still recorded.
  CacheAccessResult fill(u64 addr, AppId app);

  /// Lookup without any state change (used by tests and probes).
  bool probe(u64 addr) const;

  /// Invalidates every line (used between runs).
  void clear();

  int num_sets() const { return num_sets_; }
  int assoc() const { return assoc_; }
  const CacheStats& stats() const { return stats_; }

  u64 line_addr(u64 addr) const { return addr / line_bytes_; }
  int set_index(u64 addr) const {
    return static_cast<int>(line_addr(addr) % num_sets_);
  }

  // SimState: geometry is construction-time config; tags, LRU stamps and
  // stats are the run-time state.
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_tag("CACH");
    s.put_u64(tick_);
    for (const Line& l : lines_) {
      s.put_u64(l.word & kTagMask);
      s.put_u64(l.lru_stamp);
      s.put_i32(app_of(l));
      s.put_bool(valid(l));
    }
    s.put_u64(stats_.accesses);
    s.put_u64(stats_.hits);
    s.put_u64(stats_.evictions);
    s.put_u64(stats_.cross_app_evictions);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    r.expect_tag("CACH");
    tick_ = r.get_u64();
    for (Line& l : lines_) {
      const u64 tag = r.get_u64();
      l.lru_stamp = r.get_u64();
      const AppId app = r.get_i32();
      const bool is_valid = r.get_bool();
      SIM_CHECK(tag <= kTagMask && app >= kInvalidApp && app < kMaxApps,
                SimError(SimErrorKind::kSnapshot, "cache.set_assoc",
                         "cache line tag or app out of range")
                    .detail("tag", tag)
                    .detail("app", app));
      l.word = (is_valid ? kValid : 0) | app_bits(app) | tag;
    }
    stats_.accesses = r.get_u64();
    stats_.hits = r.get_u64();
    stats_.evictions = r.get_u64();
    stats_.cross_app_evictions = r.get_u64();
  }

 private:
  // A line in 16 bytes: the line address fits below bit 59 because lines
  // are at least 32 bytes, so the tag word also holds app + 1 in bits 59-62
  // and the valid bit in bit 63.  An invalidated line keeps its tag and app,
  // which the state walk still records.
  struct Line {
    u64 word = 0;
    u64 lru_stamp = 0;
  };
  static_assert(sizeof(Line) == 16);
  static_assert(kMaxApps < 16, "app + 1 must fit in four bits");
  static constexpr int kAppShift = 59;
  static constexpr u64 kTagMask = (u64{1} << kAppShift) - 1;
  static constexpr u64 kAppMask = u64{0xF} << kAppShift;
  static constexpr u64 kValid = u64{1} << 63;

  static u64 app_bits(AppId app) {
    assert(app >= kInvalidApp && app < kMaxApps);
    return static_cast<u64>(app + 1) << kAppShift;
  }
  static AppId app_of(const Line& l) {
    return static_cast<AppId>((l.word & kAppMask) >> kAppShift) - 1;
  }
  static bool valid(const Line& l) { return (l.word & kValid) != 0; }
  /// True when `l` is valid and holds the line `valid_tag` (kValid | tag).
  static bool holds(const Line& l, u64 valid_tag) {
    return (l.word & ~kAppMask) == valid_tag;
  }

  int num_sets_;
  int assoc_;
  int line_bytes_;
  u64 tick_ = 0;
  std::vector<Line> lines_;  // num_sets_ * assoc_, row-major by set
  CacheStats stats_;

  Line* set_begin(int set) { return lines_.data() + set * assoc_; }
  const Line* set_begin(int set) const { return lines_.data() + set * assoc_; }
};

}  // namespace gpusim
