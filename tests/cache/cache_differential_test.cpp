// Differential tests: SetAssocCache (construction-time shifts, inline
// hit path, out-of-line fill) against the division-based reference
// cache of reference_cache.h over seeded random operation sequences.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "reference_cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

/// Every geometry validate() accepts with assoc in {1, 2, 3, 4, 6, 8},
/// lines of 16–128 bytes and 1–64 KiB capacity (power-of-two set
/// counts; 3- and 6-way caches give non-power-of-two capacities such as
/// 6, 12, 24 or 48 KiB).
std::vector<CacheConfig> geometries() {
  std::vector<CacheConfig> out;
  for (const std::int64_t assoc : {1, 2, 3, 4, 6, 8}) {
    for (std::int64_t line = 16; line <= 128; line *= 2) {
      for (std::int64_t sets = 1; assoc * line * sets <= 64 * 1024; sets *= 2) {
        const CacheConfig c{assoc * line * sets, assoc, line, 2};
        if (c.sizeBytes < 1024) continue;
        c.validate();
        out.push_back(c);
      }
    }
  }
  return out;
}

std::string describe(const CacheConfig& c, std::size_t op) {
  return c.toString() + ", op " + std::to_string(op);
}

TEST(SetAssocCacheGeometry, ShiftsAgreeWithConfigDivision) {
  Rng rng(20261017);
  for (const CacheConfig& c : geometries()) {
    const SetAssocCache cache(c);
    for (int i = 0; i < 2000; ++i) {
      // Mix small addresses with full-width ones (large tags).
      const std::uint64_t addr = i % 2 == 0 ? rng.below(1u << 24) : rng();
      ASSERT_EQ(cache.setIndexOf(addr),
                static_cast<std::uint64_t>(c.setIndexOf(addr)))
          << c.toString() << " addr " << addr;
      ASSERT_EQ(cache.tagOf(addr), c.tagOf(addr))
          << c.toString() << " addr " << addr;
    }
  }
}

TEST(SetAssocCacheDifferential, RandomOperationsMatchReference) {
  const std::vector<CacheConfig> configs = geometries();
  ASSERT_GE(configs.size(), 100u);
  Rng rng(7);
  for (const CacheConfig& c : configs) {
    SetAssocCache cache(c);
    reference::SetAssocCache ref(c);
    // Addresses over four cache capacities (plenty of conflicts), plus a
    // few far away so tags use their high bits.
    const auto span = static_cast<std::uint64_t>(4 * c.sizeBytes);
    const auto randomAddr = [&]() -> std::uint64_t {
      const std::uint64_t near = rng.below(span);
      return rng.below(16) == 0 ? near + (rng() & ~(span - 1)) / 2 : near;
    };
    for (std::size_t op = 0; op < 3000; ++op) {
      const std::uint64_t addr = randomAddr();
      const bool isWrite = rng.below(3) == 0;
      const std::uint64_t kind = rng.below(100);
      if (kind < 60) {
        EvictionInfo got;
        EvictionInfo want;
        ASSERT_EQ(cache.access(addr, isWrite, &got),
                  ref.access(addr, isWrite, &want))
            << describe(c, op);
        ASSERT_EQ(got.evicted, want.evicted) << describe(c, op);
        ASSERT_EQ(got.dirty, want.dirty) << describe(c, op);
        ASSERT_EQ(got.lineAddr, want.lineAddr) << describe(c, op);
      } else if (kind < 70) {
        ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << describe(c, op);
      } else if (kind < 88) {
        // Touch a resident line (stamped at or before the current
        // clock, as the replayer does) or prove both reject a miss.
        const std::uint64_t stamp = cache.clock() - rng.below(cache.clock() + 1);
        if (ref.probe(addr)) {
          cache.touch(addr, isWrite, stamp);
          ref.touch(addr, isWrite, stamp);
        } else {
          ASSERT_THROW(cache.touch(addr, isWrite, stamp), Error);
          ASSERT_THROW(ref.touch(addr, isWrite, stamp), Error);
        }
      } else if (kind < 93) {
        const std::int64_t n = rng.range(0, 5);
        cache.bulkHits(n);
        ref.bulkHits(n);
      } else if (kind < 99) {
        ASSERT_EQ(cache.invalidateLine(addr), ref.invalidateLine(addr))
            << describe(c, op);
      } else {
        cache.flush();
        ref.flush();
      }
      ASSERT_TRUE(cache.residentLineStates() == ref.residentLineStates())
          << describe(c, op);
      ASSERT_EQ(cache.clock(), ref.clock()) << describe(c, op);
    }
    const CacheStats& got = cache.stats();
    const CacheStats& want = ref.stats();
    EXPECT_EQ(got.accesses, want.accesses) << c.toString();
    EXPECT_EQ(got.hits, want.hits) << c.toString();
    EXPECT_EQ(got.misses, want.misses) << c.toString();
    EXPECT_EQ(got.evictions, want.evictions) << c.toString();
    EXPECT_EQ(got.dirtyEvictions, want.dirtyEvictions) << c.toString();
    EXPECT_EQ(got.invalidations, want.invalidations) << c.toString();
  }
}

}  // namespace
}  // namespace laps
