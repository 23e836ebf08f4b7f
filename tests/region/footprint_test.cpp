#include "region/footprint.h"

#include <gtest/gtest.h>

#include <set>

#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

/// Reference model: enumerate every iteration point and linearize.
std::set<std::int64_t> bruteForceImage(const IterationSpace& space,
                                       const ArrayAccess& access,
                                       const ArrayInfo& info) {
  std::set<std::int64_t> out;
  std::vector<std::int64_t> idx;
  space.forEachPoint([&](std::span<const std::int64_t> p) {
    access.map.eval(p, idx);
    out.insert(info.linearize(idx));
  });
  return out;
}

std::set<std::int64_t> expand(const IntervalSet& s) {
  std::set<std::int64_t> points;
  for (const auto& iv : s.pieces()) {
    for (std::int64_t x = iv.lo; x < iv.hi; ++x) points.insert(x);
  }
  return points;
}

/// The paper's Prog1 setup: A[i1*1000 + i2][5] over [0,8)x[0,3000),
/// parallelized into 8 processes along i1.
struct Prog1Fixture {
  ArrayTable arrays;
  ArrayId arrayA;
  IterationSpace fullSpace = IterationSpace::box({{0, 8}, {0, 3000}});
  ArrayAccess access;

  Prog1Fixture() {
    arrayA = arrays.add("A", {10000, 16}, 4);
    access = ArrayAccess{arrayA,
                         AffineMap{AffineExpr({1000, 1}, 0),
                                   AffineExpr::constant(5)},
                         AccessKind::Read};
  }

  [[nodiscard]] IntervalSet processFootprint(std::int64_t k) const {
    return accessFootprint(fullSpace.fixDim(0, k), access, arrays.at(arrayA));
  }
};

TEST(LinearizeAccess, RowMajorComposition) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {10000, 16}, 4);
  const ArrayAccess access{
      a, AffineMap{AffineExpr({1000, 1}, 0), AffineExpr::constant(5)},
      AccessKind::Read};
  const AffineExpr lin = linearizeAccess(access, arrays.at(a));
  // lin(i1, i2) = (1000*i1 + i2)*16 + 5.
  const std::array<std::int64_t, 2> p{2, 7};
  EXPECT_EQ(lin.eval(p), (1000 * 2 + 7) * 16 + 5);
  EXPECT_EQ(lin.coeff(0), 16000);
  EXPECT_EQ(lin.coeff(1), 16);
  EXPECT_EQ(lin.constantTerm(), 5);
}

TEST(LinearizeAccess, RankMismatchThrows) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {10, 10}, 4);
  const ArrayAccess oneD{a, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read};
  EXPECT_THROW(linearizeAccess(oneD, arrays.at(a)), Error);
}

TEST(Footprint, Prog1ProcessSize) {
  const Prog1Fixture f;
  for (std::int64_t k = 0; k < 8; ++k) {
    const IntervalSet fp = f.processFootprint(k);
    EXPECT_EQ(fp.cardinality(), 3000) << "process " << k;
  }
}

TEST(Footprint, Prog1PairwiseSharingFormula) {
  // |SS_{k,p}| = max(0, 3000 - 1000*|k-p|): 2000 for neighbors,
  // 1000 at distance 2, 0 beyond (paper Fig. 2(a)).
  const Prog1Fixture f;
  std::vector<IntervalSet> fps;
  for (std::int64_t k = 0; k < 8; ++k) fps.push_back(f.processFootprint(k));
  for (std::int64_t k = 0; k < 8; ++k) {
    for (std::int64_t p = 0; p < 8; ++p) {
      const std::int64_t expected =
          std::max<std::int64_t>(0, 3000 - 1000 * std::llabs(k - p));
      EXPECT_EQ(fps[static_cast<std::size_t>(k)].intersectCardinality(
                    fps[static_cast<std::size_t>(p)]),
                k == p ? 3000 : expected)
          << "k=" << k << " p=" << p;
    }
  }
}

TEST(Footprint, ContiguousInnerAccessCoalesces) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("V", {100000}, 4);
  const ArrayAccess access{a, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read};
  const auto space = IterationSpace::box({{100, 5000}});
  const IntervalSet fp = accessFootprint(space, access, arrays.at(a));
  EXPECT_EQ(fp.pieceCount(), 1u);
  EXPECT_EQ(fp.cardinality(), 4900);
  EXPECT_EQ(fp.bounds(), (Interval{100, 5000}));
}

TEST(Footprint, ConstantAccessIsSinglePoint) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("S", {64}, 4);
  const ArrayAccess access{a, AffineMap{AffineExpr::constant(7)},
                           AccessKind::Read};
  const auto space = IterationSpace::box({{0, 50}, {0, 50}});
  const IntervalSet fp = accessFootprint(space, access, arrays.at(a));
  EXPECT_EQ(fp.cardinality(), 1);
  EXPECT_TRUE(fp.contains(7));
}

TEST(Footprint, EmptySpaceGivesEmptyFootprint) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("V", {100}, 4);
  const ArrayAccess access{a, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read};
  const auto space = IterationSpace::box({{5, 5}});
  EXPECT_TRUE(accessFootprint(space, access, arrays.at(a)).empty());
}

TEST(Footprint, BudgetExceededThrows) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("Huge", {1 << 28}, 4);
  // Stride-2 access: every iteration is its own fragment.
  const ArrayAccess access{a, AffineMap{AffineExpr({2}, 0)}, AccessKind::Read};
  const auto space = IterationSpace::box({{0, 1 << 20}});
  EXPECT_THROW(accessFootprint(space, access, arrays.at(a), /*budget=*/1000),
               Error);
  EXPECT_NO_THROW(
      accessFootprint(space, access, arrays.at(a), /*budget=*/1 << 21));
}

class FootprintProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintProperty, MatchesBruteForceEnumeration) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    ArrayTable arrays;
    const std::int64_t rows = rng.range(8, 40);
    const std::int64_t cols = rng.range(4, 24);
    const ArrayId a = arrays.add("A", {rows, cols}, 4);

    // Random affine access kept within bounds by construction:
    // (alpha*i0 + r0, beta*i1 + c0) over a space sized to fit.
    const std::int64_t alpha = rng.range(1, 3);
    const std::int64_t beta = rng.range(1, 2);
    const std::int64_t r0 = rng.range(0, 3);
    const std::int64_t c0 = rng.range(0, 2);
    const std::int64_t iMax = (rows - 1 - r0) / alpha + 1;
    const std::int64_t jMax = (cols - 1 - c0) / beta + 1;
    const auto space = IterationSpace::box(
        {{0, rng.range(1, iMax)}, {0, rng.range(1, jMax)}});
    const ArrayAccess access{
        a,
        AffineMap{AffineExpr({alpha, 0}, r0), AffineExpr({0, beta}, c0)},
        AccessKind::Read};

    const IntervalSet fp = accessFootprint(space, access, arrays.at(a));
    EXPECT_EQ(expand(fp), bruteForceImage(space, access, arrays.at(a)))
        << "space=" << space.toString() << " map=" << access.map.toString()
        << " array=" << rows << "x" << cols;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(AccessFootprintBounds, EqualsEnumeratedBoundsOnRandomSpaces) {
  // Random rank-0..3 spaces with negative starts, non-unit steps and
  // occasional empty dimensions, under random negative and positive
  // coefficients over rank-1..3 arrays. The addresses may leave the
  // array: bounds are about the image, not its validity.
  Rng rng(0xb0d5);
  int nonEmpty = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ArrayTable arrays;
    const auto arrayRank = static_cast<std::size_t>(rng.range(1, 3));
    std::vector<std::int64_t> extents(arrayRank);
    for (auto& e : extents) e = rng.range(1, 12);
    const ArrayId a = arrays.add("A", extents);
    const auto spaceRank = static_cast<std::size_t>(rng.range(0, 3));
    std::vector<LoopDim> dims(spaceRank);
    for (auto& d : dims) {
      d.lo = rng.range(-6, 6);
      d.hi = d.lo + rng.range(rng.below(20) == 0 ? -2 : 1, 9);
      d.step = rng.range(1, 4);
    }
    const IterationSpace space(dims);
    std::vector<AffineExpr> exprs;
    for (std::size_t r = 0; r < arrayRank; ++r) {
      std::vector<std::int64_t> coeffs(spaceRank);
      for (auto& c : coeffs) c = rng.range(-5, 5);
      exprs.emplace_back(std::move(coeffs), rng.range(-20, 20));
    }
    const ArrayAccess access{a, AffineMap(std::move(exprs)), AccessKind::Read};
    const Interval bounds = accessFootprintBounds(space, access, arrays.at(a));
    const IntervalSet fp = accessFootprint(space, access, arrays.at(a));
    ASSERT_EQ(bounds.empty(), fp.empty()) << "trial " << trial;
    if (fp.empty()) continue;
    ++nonEmpty;
    EXPECT_EQ(bounds, fp.bounds())
        << "trial " << trial << " space=" << space.toString()
        << " map=" << access.map.toString();
  }
  EXPECT_GT(nonEmpty, 150);
}

TEST(AccessFootprintBounds, SharesTheEnumerationBudgetAndRankChecks) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("Huge", {1 << 28}, 4);
  const ArrayAccess stride2{a, AffineMap{AffineExpr({2}, 0)}, AccessKind::Read};
  const auto space = IterationSpace::box({{0, 1 << 20}});
  EXPECT_THROW((void)accessFootprintBounds(space, stride2, arrays.at(a), 1000),
               Error);
  EXPECT_EQ(accessFootprintBounds(space, stride2, arrays.at(a), 1 << 21),
            (Interval{0, (2 << 20) - 1}));
  const ArrayAccess rank2{a, AffineMap{AffineExpr({1}, 0), AffineExpr({1}, 0)},
                          AccessKind::Read};
  EXPECT_THROW((void)accessFootprintBounds(space, rank2, arrays.at(a)), Error);
  // An empty space is accepted before any check, as accessFootprint does.
  EXPECT_TRUE(accessFootprintBounds(IterationSpace::box({{4, 2}}), rank2,
                                    arrays.at(a))
                  .empty());
}

TEST(FootprintClass, AddUnionsPerArray) {
  Footprint fp;
  fp.add(0, IntervalSet::range(0, 10));
  fp.add(0, IntervalSet::range(5, 15));
  fp.add(1, IntervalSet::range(100, 110));
  EXPECT_EQ(fp.of(0).cardinality(), 15);
  EXPECT_EQ(fp.of(1).cardinality(), 10);
  EXPECT_EQ(fp.totalElements(), 25);
  EXPECT_TRUE(fp.touches(0));
  EXPECT_FALSE(fp.touches(2));
  EXPECT_TRUE(fp.of(2).empty());
  EXPECT_EQ(fp.arrays(), (std::vector<ArrayId>{0, 1}));
}

TEST(FootprintClass, AddEmptySetIsNoop) {
  Footprint fp;
  fp.add(3, IntervalSet());
  EXPECT_FALSE(fp.touches(3));
  EXPECT_EQ(fp.totalElements(), 0);
}

TEST(FootprintClass, SharedElementsSumsAcrossArrays) {
  Footprint p;
  p.add(0, IntervalSet::range(0, 100));
  p.add(1, IntervalSet::range(0, 50));
  Footprint q;
  q.add(0, IntervalSet::range(90, 200));   // overlap 10
  q.add(1, IntervalSet::range(40, 45));    // overlap 5
  q.add(2, IntervalSet::range(0, 1000));   // no counterpart in p
  EXPECT_EQ(p.sharedElements(q), 15);
  EXPECT_EQ(q.sharedElements(p), 15);  // symmetric
}

TEST(FootprintClass, DisjointArraysShareNothing) {
  Footprint p;
  p.add(0, IntervalSet::range(0, 100));
  Footprint q;
  q.add(1, IntervalSet::range(0, 100));
  EXPECT_EQ(p.sharedElements(q), 0);
}

TEST(FootprintClass, MergeAccumulates) {
  Footprint p;
  p.add(0, IntervalSet::range(0, 10));
  Footprint q;
  q.add(0, IntervalSet::range(20, 30));
  q.add(1, IntervalSet::range(0, 5));
  p.merge(q);
  EXPECT_EQ(p.of(0).cardinality(), 20);
  EXPECT_EQ(p.of(1).cardinality(), 5);
}

}  // namespace
}  // namespace laps
