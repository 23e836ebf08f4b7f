#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "util/error.h"

namespace laps {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, BelowStaysInBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.below(0), Error);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng r(5);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, RangeSingleValue) {
  Rng r(5);
  EXPECT_EQ(r.range(9, 9), 9);
}

TEST(Rng, RangeBadArgsThrow) {
  Rng r(5);
  EXPECT_THROW(r.range(2, 1), Error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  r.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng r(31);
  std::vector<int> empty;
  r.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  r.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, IndexBounds) {
  Rng r(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(r.index(5), 5u);
  }
  EXPECT_THROW(r.index(0), Error);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(41);
  Rng childA = parent.split();
  Rng childB = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (childA() == childB()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(43);
  Rng p2(43);
  Rng c1 = p1.split();
  Rng c2 = p2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

}  // namespace
}  // namespace laps
