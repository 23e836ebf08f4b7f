#include "strided_interval.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace laps {
namespace {

std::set<std::int64_t> expand(const StridedInterval& s) {
  std::set<std::int64_t> out;
  for (std::int64_t k = 0; k < s.count; ++k) out.insert(s.base + k * s.stride);
  return out;
}

TEST(SolveLinearCongruence, Solvable) {
  // 3x ≡ 6 (mod 9): solutions x ≡ 2 (mod 3); smallest non-negative is 2.
  auto x = solveLinearCongruence(3, 6, 9);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((3 * *x) % 9, 6 % 9);
  EXPECT_EQ(*x, 2);
}

TEST(SolveLinearCongruence, Unsolvable) {
  // 2x ≡ 1 (mod 4) has no solution (gcd(2,4)=2 does not divide 1).
  EXPECT_FALSE(solveLinearCongruence(2, 1, 4).has_value());
}

TEST(SolveLinearCongruence, NegativeInputsNormalized) {
  auto x = solveLinearCongruence(-3, 5, 7);
  ASSERT_TRUE(x.has_value());
  // -3x ≡ 5 (mod 7) -> 4x ≡ 5 (mod 7) -> x = 3 (4*3=12≡5).
  EXPECT_EQ(*x, 3);
}

TEST(SolveLinearCongruence, ModulusOne) {
  auto x = solveLinearCongruence(5, 3, 1);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 0);
}

TEST(StridedInterval, Contains) {
  const StridedInterval s{10, 3, 5};  // {10,13,16,19,22}
  EXPECT_TRUE(s.contains(10));
  EXPECT_TRUE(s.contains(22));
  EXPECT_FALSE(s.contains(23));
  EXPECT_FALSE(s.contains(11));
  EXPECT_FALSE(s.contains(7));
  EXPECT_FALSE((StridedInterval{}).contains(0));
}

TEST(StridedInterval, ToIntervalSetUnitStride) {
  const StridedInterval s{5, 1, 10};
  const IntervalSet set = s.toIntervalSet();
  EXPECT_EQ(set.pieceCount(), 1u);
  EXPECT_EQ(set.cardinality(), 10);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(14));
  EXPECT_FALSE(set.contains(15));
}

TEST(StridedInterval, ToIntervalSetWideStride) {
  const StridedInterval s{0, 100, 4};
  const IntervalSet set = s.toIntervalSet();
  EXPECT_EQ(set.pieceCount(), 4u);
  EXPECT_EQ(set.cardinality(), 4);
  EXPECT_TRUE(set.contains(300));
  EXPECT_FALSE(set.contains(150));
}

TEST(StridedInterval, EmptyExpansion) {
  const StridedInterval none{0, 1, 0};
  EXPECT_TRUE(none.toIntervalSet().empty());
}

TEST(StridedInterval, IntersectDisjointRanges) {
  const StridedInterval a{0, 2, 5};    // up to 8
  const StridedInterval b{100, 2, 5};  // starts at 100
  EXPECT_EQ(a.intersectCount(b), 0);
}

TEST(StridedInterval, IntersectSameStride) {
  const StridedInterval a{0, 4, 10};  // {0,4,...,36}
  const StridedInterval b{8, 4, 10};  // {8,12,...,44}
  // Common: {8,...,36} step 4 -> 8 elements.
  EXPECT_EQ(a.intersectCount(b), 8);
  const StridedInterval c{1, 4, 10};  // shifted phase: no common points
  EXPECT_EQ(a.intersectCount(c), 0);
}

TEST(StridedInterval, IntersectCoprimeStrides) {
  const StridedInterval a{0, 3, 20};  // multiples of 3 below 60
  const StridedInterval b{0, 5, 20};  // multiples of 5 below 100
  // Common points are multiples of 15 in [0, 57]: 0,15,30,45 -> 4.
  EXPECT_EQ(a.intersectCount(b), 4);
  const StridedInterval i = a.intersect(b);
  EXPECT_EQ(i.base, 0);
  EXPECT_EQ(i.stride, 15);
  EXPECT_EQ(i.count, 4);
}

class StridedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StridedProperty, IntersectionMatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    const StridedInterval a{rng.range(-50, 50), rng.range(1, 12),
                            rng.range(0, 40)};
    const StridedInterval b{rng.range(-50, 50), rng.range(1, 12),
                            rng.range(0, 40)};
    const auto refA = expand(a);
    const auto refB = expand(b);
    std::set<std::int64_t> refInter;
    for (const auto x : refA) {
      if (refB.count(x)) refInter.insert(x);
    }
    ASSERT_EQ(a.intersectCount(b), static_cast<std::int64_t>(refInter.size()))
        << "a={" << a.base << "," << a.stride << "," << a.count << "} b={"
        << b.base << "," << b.stride << "," << b.count << "}";
    EXPECT_EQ(expand(a.intersect(b)), refInter);
    // Symmetry.
    EXPECT_EQ(a.intersectCount(b), b.intersectCount(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StridedProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace laps
