#include "cache/cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

CacheConfig tinyCache() {
  // 4 sets x 2 ways x 16B lines = 128 B.
  return CacheConfig{128, 2, 16, 2};
}

TEST(CacheConfig, DerivedGeometry) {
  const CacheConfig c{8192, 2, 32, 2};
  EXPECT_EQ(c.numSets(), 128);
  EXPECT_EQ(c.numLines(), 256);
  EXPECT_EQ(c.cachePageBytes(), 4096);
  EXPECT_NO_THROW(c.validate());
}

TEST(CacheConfig, SetIndexAndTag) {
  const CacheConfig c = tinyCache();  // 4 sets, 16B lines
  EXPECT_EQ(c.setIndexOf(0), 0);
  EXPECT_EQ(c.setIndexOf(16), 1);
  EXPECT_EQ(c.setIndexOf(16 * 4), 0);      // wraps
  EXPECT_EQ(c.setIndexOf(15), 0);          // same line
  EXPECT_EQ(c.tagOf(0), 0u);
  EXPECT_EQ(c.tagOf(16 * 4), 1u);
}

TEST(CacheConfig, ValidateRejectsBadGeometry) {
  EXPECT_THROW((CacheConfig{0, 2, 32, 2}).validate(), Error);
  EXPECT_THROW((CacheConfig{8192, 0, 32, 2}).validate(), Error);
  EXPECT_THROW((CacheConfig{8192, 2, 0, 2}).validate(), Error);
  EXPECT_THROW((CacheConfig{8192, 2, 33, 2}).validate(), Error);   // line not pow2
  EXPECT_THROW((CacheConfig{8200, 2, 32, 2}).validate(), Error);   // not divisible
  EXPECT_THROW((CacheConfig{8192, 2, 32, -1}).validate(), Error);  // latency
  // 3-way 96-line cache: sets = 8192/(3*32) not integral.
  EXPECT_THROW((CacheConfig{8192, 3, 32, 2}).validate(), Error);
}

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache cache(tinyCache());
  EXPECT_EQ(cache.access(0, false), AccessOutcome::Miss);
  EXPECT_EQ(cache.access(0, false), AccessOutcome::Hit);
  EXPECT_EQ(cache.access(15, false), AccessOutcome::Hit);  // same line
  EXPECT_EQ(cache.access(16, false), AccessOutcome::Miss); // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SetAssocCache, LruEvictionOrder) {
  SetAssocCache cache(tinyCache());  // 2 ways per set
  // Three lines mapping to set 0: addresses 0, 64, 128 (16B lines, 4 sets).
  cache.access(0, false);
  cache.access(64, false);
  cache.access(0, false);    // 0 is now MRU, 64 is LRU
  cache.access(128, false);  // evicts 64
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(64));
  EXPECT_TRUE(cache.probe(128));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SetAssocCache, WriteMakesLineDirty) {
  SetAssocCache cache(tinyCache());
  cache.access(0, true);     // write-allocate, dirty
  cache.access(64, false);   // fills second way
  cache.access(128, false);  // evicts 0 (LRU) -> dirty eviction
  EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SetAssocCache, WriteHitDirtiesExistingLine) {
  SetAssocCache cache(tinyCache());
  cache.access(0, false);   // clean fill
  cache.access(0, true);    // dirty on hit
  cache.access(64, false);
  cache.access(128, false);  // evicts 0
  EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(SetAssocCache, FlushInvalidatesAndCountsWritebacks) {
  SetAssocCache cache(tinyCache());
  cache.access(0, true);
  cache.access(16, false);
  EXPECT_EQ(cache.residentLines(), 2);
  cache.flush();
  EXPECT_EQ(cache.residentLines(), 0);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
  EXPECT_EQ(cache.access(0, false), AccessOutcome::Miss);  // cold again
}

TEST(SetAssocCache, ProbeHasNoSideEffects) {
  SetAssocCache cache(tinyCache());
  cache.access(0, false);
  const CacheStats before = cache.stats();
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(999));
  EXPECT_EQ(cache.stats().accesses, before.accesses);
}

TEST(SetAssocCache, DistinctSetsDoNotInterfere) {
  SetAssocCache cache(tinyCache());
  // Fill set 0 with 2 lines, then hammer set 1; set 0 must stay resident.
  cache.access(0, false);
  cache.access(64, false);
  for (int i = 0; i < 10; ++i) {
    cache.access(16 + static_cast<std::uint64_t>(i) * 64, false);
  }
  EXPECT_TRUE(cache.probe(0));
  EXPECT_TRUE(cache.probe(64));
}

TEST(SetAssocCache, SequentialStreamMissesOncePerLine) {
  SetAssocCache cache(CacheConfig{8192, 2, 32, 2});
  for (std::uint64_t addr = 0; addr < 4096; addr += 4) {
    cache.access(addr, false);
  }
  EXPECT_EQ(cache.stats().misses, 4096u / 32u);
  EXPECT_EQ(cache.stats().accesses, 1024u);
}

TEST(SetAssocCache, DirectMappedConflictThrash) {
  // Direct-mapped: two lines in the same set always evict each other.
  SetAssocCache cache(CacheConfig{128, 1, 16, 2});  // 8 sets
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cache.access(0, false), AccessOutcome::Miss);
    EXPECT_EQ(cache.access(128, false), AccessOutcome::Miss);
  }
  // Same pattern with 2 ways: only compulsory misses.
  SetAssocCache assoc(tinyCache());
  int misses = 0;
  for (int i = 0; i < 10; ++i) {
    if (assoc.access(0, false) == AccessOutcome::Miss) ++misses;
    if (assoc.access(64, false) == AccessOutcome::Miss) ++misses;
  }
  EXPECT_EQ(misses, 2);
}

TEST(CacheStats, Accumulate) {
  CacheStats a{10, 6, 4, 2, 1, 0};
  const CacheStats b{5, 2, 3, 1, 1, 2};
  a.accumulate(b);
  EXPECT_EQ(a.accesses, 15u);
  EXPECT_EQ(a.hits, 8u);
  EXPECT_EQ(a.misses, 7u);
  EXPECT_EQ(a.evictions, 3u);
  EXPECT_EQ(a.dirtyEvictions, 2u);
  EXPECT_EQ(a.invalidations, 2u);
  EXPECT_NEAR(a.missRate(), 7.0 / 15.0, 1e-12);
  EXPECT_EQ(CacheStats{}.missRate(), 0.0);
}

/// LRU inclusion property: with the same number of sets, adding ways can
/// never increase the miss count on any reference stream.
class AssociativityMonotonicity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssociativityMonotonicity, MoreWaysNeverMoreMisses) {
  Rng rng(GetParam());
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 20000; ++i) {
    // Zipf-ish mixture of a hot region and a cold sweep.
    if (rng.below(10) < 7) {
      stream.push_back(static_cast<std::uint64_t>(rng.below(2048)));
    } else {
      stream.push_back(static_cast<std::uint64_t>(rng.below(1 << 20)));
    }
  }
  // Fixed 64 sets * 16B lines; ways 1, 2, 4, 8.
  std::uint64_t prevMisses = ~0ULL;
  for (const std::int64_t ways : {1, 2, 4, 8}) {
    SetAssocCache cache(CacheConfig{64 * 16 * ways, ways, 16, 2});
    ASSERT_EQ(cache.config().numSets(), 64);
    for (const auto addr : stream) cache.access(addr, false);
    EXPECT_LE(cache.stats().misses, prevMisses) << "ways=" << ways;
    prevMisses = cache.stats().misses;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssociativityMonotonicity,
                         ::testing::Values(3, 14, 159, 2653));

TEST(SetAssocCache, LineRunLength) {
  EXPECT_EQ(lineRunLength(0, 4, 32), 8);
  EXPECT_EQ(lineRunLength(28, 4, 32), 1);
  EXPECT_EQ(lineRunLength(33, 4, 32), 8);  // 33..61 inside line [32, 64)
  EXPECT_EQ(lineRunLength(40, 16, 32), 2);
  EXPECT_EQ(lineRunLength(100, 64, 32), 1);
  EXPECT_EQ(lineRunLength(31, -4, 32), 8);
  EXPECT_EQ(lineRunLength(32, -4, 32), 1);
  EXPECT_GT(lineRunLength(7, 0, 32), 1'000'000'000);
}

}  // namespace
}  // namespace laps
