#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {
namespace {

constexpr int kLine = 128;

u64 addr_of(int set, int tag, int num_sets) {
  return (static_cast<u64>(tag) * num_sets + set) * kLine;
}

TEST(CacheTest, MissThenHit) {
  SetAssocCache c(16, 4, kLine);
  EXPECT_FALSE(c.access(0x1000, 0).hit);
  EXPECT_TRUE(c.access(0x1000, 0).hit);
  // Same line, different byte offset.
  EXPECT_TRUE(c.access(0x1000 + 64, 0).hit);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST(CacheTest, LruEvictionOrder) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 1, 4);
  const u64 b = addr_of(0, 2, 4);
  const u64 d = addr_of(0, 3, 4);
  c.access(a, 0);
  c.access(b, 0);
  c.access(a, 0);  // a is now MRU
  const auto res = c.access(d, 0);
  EXPECT_FALSE(res.hit);
  EXPECT_TRUE(res.evicted);
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));  // b was LRU
  EXPECT_TRUE(c.probe(d));
}

TEST(CacheTest, CrossAppEvictionTracked) {
  SetAssocCache c(1, 1, kLine);
  c.access(addr_of(0, 1, 1), /*app=*/0);
  const auto res = c.access(addr_of(0, 2, 1), /*app=*/1);
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_app, 0);
  EXPECT_EQ(c.stats().cross_app_evictions, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(CacheTest, ProbeDoesNotDisturbState) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(1, 1, 4);
  EXPECT_FALSE(c.probe(a));
  c.access(a, 0);
  const u64 before = c.stats().accesses;
  EXPECT_TRUE(c.probe(a));
  EXPECT_EQ(c.stats().accesses, before);  // probes are not accesses
}

TEST(CacheTest, LookupTouchDoesNotAllocate) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 5, 4);
  EXPECT_FALSE(c.lookup_touch(a, 0));
  EXPECT_FALSE(c.probe(a)) << "miss must not allocate";
  EXPECT_EQ(c.stats().accesses, 1u);
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(CacheTest, FillInstallsWithoutAccessStats) {
  SetAssocCache c(4, 2, kLine);
  const u64 a = addr_of(0, 5, 4);
  c.fill(a, 0);
  EXPECT_TRUE(c.probe(a));
  EXPECT_EQ(c.stats().accesses, 0u);
  // Re-filling the same line refreshes rather than duplicating.
  const auto res = c.fill(a, 1);
  EXPECT_TRUE(res.hit);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(CacheTest, LookupTouchRefreshesLru) {
  SetAssocCache c(1, 2, kLine);
  const u64 a = addr_of(0, 1, 1);
  const u64 b = addr_of(0, 2, 1);
  const u64 d = addr_of(0, 3, 1);
  c.fill(a, 0);
  c.fill(b, 0);
  c.lookup_touch(a, 0);  // a MRU
  c.fill(d, 0);          // evicts b
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
}

TEST(CacheTest, ClearInvalidatesEverything) {
  SetAssocCache c(4, 2, kLine);
  c.access(addr_of(0, 1, 4), 0);
  c.clear();
  EXPECT_FALSE(c.probe(addr_of(0, 1, 4)));
  EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(CacheTest, SetsAreIndependent) {
  SetAssocCache c(4, 1, kLine);
  for (int set = 0; set < 4; ++set) {
    c.access(addr_of(set, 1, 4), 0);
  }
  for (int set = 0; set < 4; ++set) {
    EXPECT_TRUE(c.probe(addr_of(set, 1, 4)));
  }
}

TEST(CacheTest, LinesShorterThan32BytesAreAConfigError) {
  for (const int line_bytes : {1, 2, 4, 8, 16}) {
    SCOPED_TRACE(line_bytes);
    try {
      SetAssocCache c(4, 2, line_bytes);
      FAIL() << "a " << line_bytes << "-byte line was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::kConfig);
    }
  }
  EXPECT_NO_THROW(SetAssocCache(4, 2, 32));
}

/// Hits, fills, refreshes, cross-app evictions by every AppId from
/// kInvalidApp to kMaxApps - 1, and tags from the top of the address space.
void script(SetAssocCache& c, int line_bytes) {
  const auto addr = [&](int set, u64 tag) {
    return (tag * static_cast<u64>(c.num_sets()) + set) * line_bytes;
  };
  for (int i = 0; i < 12; ++i) c.access(addr(i % 4, 1 + i / 4), 0);
  for (int i = 0; i < 12; ++i) c.lookup_touch(addr(i % 4, 1 + i % 5), 0);
  for (AppId app = kInvalidApp; app < kMaxApps; ++app) {
    c.access(addr(app & 3, 20 + app), app);
    c.fill(addr((app + 1) & 3, 40 + app), app);
    c.fill(addr((app + 1) & 3, 40 + app), (app + 2) % kMaxApps);
    c.lookup_touch(addr(app & 3, 20 + app),
                   (kMaxApps - 1 - app) % kMaxApps);
  }
  for (int i = 0; i < 4; ++i) {
    const u64 top = ~u64{0} - static_cast<u64>(i) * line_bytes;
    c.access(top, i == 0 ? kInvalidApp : kMaxApps - i);
    c.fill(top - static_cast<u64>(c.num_sets()) * line_bytes, i);
  }
}

TEST(CacheTest, SerializedStateIsPinned) {
  // Recorded with the unpacked 24-byte line: every in-memory layout must
  // hash (and so save) the same tag, LRU stamp, app and valid bit per line,
  // stale tags of invalidated lines included.
  Hasher h;
  for (const int line_bytes : {kLine, 32}) {
    SetAssocCache c(4, 3, line_bytes);
    script(c, line_bytes);
    c.hash(h);
    c.clear();
    for (int i = 0; i < 5; ++i) {
      c.access(static_cast<u64>(i) * 7 * line_bytes, i % kMaxApps);
    }
    c.hash(h);
    script(c, line_bytes);
    c.hash(h);

    StateWriter w;
    c.save(w);
    SetAssocCache restored(4, 3, line_bytes);
    StateReader r(w.bytes());
    restored.load(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(state_hash_of(restored), state_hash_of(c));
  }
  EXPECT_EQ(h.digest(), 0xDFD774AC93B6F68AULL);
}

TEST(CacheTest, LoadRejectsLinesTheTagWordCannotHold) {
  struct Case {
    u64 tag;
    AppId app;
    bool fits;
  };
  for (const Case c :
       {Case{(u64{1} << 59) - 1, kMaxApps - 1, true},
        Case{0, kInvalidApp, true}, Case{u64{1} << 59, 0, false},
        Case{0, kMaxApps, false}, Case{0, -2, false}}) {
    SCOPED_TRACE(std::to_string(c.tag) + " app " + std::to_string(c.app));
    StateWriter w;
    w.put_tag("CACH");
    w.put_u64(1);  // tick
    w.put_u64(c.tag);
    w.put_u64(1);  // lru stamp
    w.put_i32(c.app);
    w.put_bool(true);
    for (int i = 0; i < 4; ++i) w.put_u64(0);  // stats
    SetAssocCache cache(1, 1, 32);
    StateReader r(w.bytes());
    if (c.fits) {
      cache.load(r);
      StateWriter again;
      cache.save(again);
      EXPECT_EQ(again.bytes(), w.bytes());
    } else {
      try {
        cache.load(r);
        FAIL() << "an unrepresentable line was loaded";
      } catch (const SimError& e) {
        EXPECT_EQ(e.kind(), SimErrorKind::kSnapshot);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property test: the cache must agree with a straightforward reference LRU
// model over random access traces, for several geometries.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(int num_sets, int assoc) : num_sets_(num_sets), assoc_(assoc),
                                          sets_(num_sets) {}

  bool access(u64 line) {
    auto& set = sets_[line % num_sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        set.push_front(line);
        return true;
      }
    }
    set.push_front(line);
    if (static_cast<int>(set.size()) > assoc_) set.pop_back();
    return false;
  }

 private:
  int num_sets_;
  int assoc_;
  std::vector<std::list<u64>> sets_;
};

class CacheLruPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, u64>> {};

TEST_P(CacheLruPropertyTest, MatchesReferenceModel) {
  const auto [num_sets, assoc, seed] = GetParam();
  SetAssocCache cache(num_sets, assoc, kLine);
  ReferenceLru ref(num_sets, assoc);
  Rng rng(seed);
  const u64 distinct_lines = static_cast<u64>(num_sets) * assoc * 3;
  for (int i = 0; i < 20000; ++i) {
    const u64 line = rng.next_below(distinct_lines);
    const bool expect_hit = ref.access(line);
    const bool got_hit = cache.access(line * kLine, 0).hit;
    ASSERT_EQ(got_hit, expect_hit) << "access " << i << " line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLruPropertyTest,
    ::testing::Combine(::testing::Values(1, 4, 32, 128),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1u, 99u)));

}  // namespace
}  // namespace gpusim
