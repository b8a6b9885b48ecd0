#include "cache/cache.hpp"

#include "common/sim_error.hpp"

namespace gpusim {

SetAssocCache::SetAssocCache(int num_sets, int assoc, int line_bytes)
    : num_sets_(num_sets), assoc_(assoc), line_bytes_(line_bytes) {
  SIM_CHECK(num_sets_ > 0 && assoc_ > 0,
            SimError(SimErrorKind::kConfig, "cache.set_assoc",
                     "cache geometry must be positive")
                .detail("num_sets", num_sets_)
                .detail("assoc", assoc_));
  SIM_CHECK(line_bytes_ > 0 && (line_bytes_ & (line_bytes_ - 1)) == 0,
            SimError(SimErrorKind::kConfig, "cache.set_assoc",
                     "line size must be a power of two")
                .detail("line_bytes", line_bytes_));
  SIM_CHECK(line_bytes_ >= 32,
            SimError(SimErrorKind::kConfig, "cache.set_assoc",
                     "line size must be at least 32 bytes")
                .detail("line_bytes", line_bytes_));
  lines_.resize(static_cast<std::size_t>(num_sets_) * assoc_);
}

bool SetAssocCache::lookup_touch(u64 addr, AppId app) {
  ++stats_.accesses;
  const u64 valid_tag = kValid | line_addr(addr);
  Line* begin = set_begin(set_index(addr));
  ++tick_;
  for (int w = 0; w < assoc_; ++w) {
    Line& line = begin[w];
    if (holds(line, valid_tag)) {
      line.lru_stamp = tick_;
      line.word = valid_tag | app_bits(app);
      ++stats_.hits;
      return true;
    }
  }
  return false;
}

CacheAccessResult SetAssocCache::fill(u64 addr, AppId app) {
  const u64 valid_tag = kValid | line_addr(addr);
  Line* begin = set_begin(set_index(addr));
  ++tick_;

  Line* victim = nullptr;
  for (int w = 0; w < assoc_; ++w) {
    Line& line = begin[w];
    if (holds(line, valid_tag)) {
      // Already present (e.g. refilled by a racing fill); just refresh.
      line.lru_stamp = tick_;
      line.word = valid_tag | app_bits(app);
      return {.hit = true};
    }
    if (!valid(line)) {
      if (victim == nullptr || valid(*victim)) victim = &line;
    } else if (victim == nullptr ||
               (valid(*victim) && line.lru_stamp < victim->lru_stamp)) {
      victim = &line;
    }
  }
  CacheAccessResult result;
  if (valid(*victim)) {
    result.evicted = true;
    result.victim_app = app_of(*victim);
    ++stats_.evictions;
    if (result.victim_app != app) ++stats_.cross_app_evictions;
  }
  victim->word = valid_tag | app_bits(app);
  victim->lru_stamp = tick_;
  return result;
}

CacheAccessResult SetAssocCache::access(u64 addr, AppId app) {
  ++stats_.accesses;
  const CacheAccessResult result = fill(addr, app);
  if (result.hit) ++stats_.hits;
  return result;
}

bool SetAssocCache::probe(u64 addr) const {
  const u64 valid_tag = kValid | line_addr(addr);
  const Line* begin = set_begin(set_index(addr));
  for (int w = 0; w < assoc_; ++w) {
    if (holds(begin[w], valid_tag)) return true;
  }
  return false;
}

void SetAssocCache::clear() {
  for (auto& line : lines_) line.word &= ~kValid;
  tick_ = 0;
  stats_ = {};
}

}  // namespace gpusim
