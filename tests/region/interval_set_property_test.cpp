/// \file interval_set_property_test.cpp
/// \brief Property tests for the IntervalSet algebra against a
/// brute-force bitset oracle.
///
/// IntervalSet is the hot path of the footprint/sharing analysis, and the
/// run-length replay mode leans harder on this algebra (footprints of
/// thousand-process mixes). These tests drive randomized (seeded)
/// interval sets through insert/unite/subtract/intersect and the
/// intersectCardinality fast path, checking every result point-for-point
/// against an explicit bitset model of the same domain.

#include "region/interval_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <vector>

#include "strided_interval.h"
#include "util/rng.h"

namespace laps {
namespace {

constexpr std::size_t kDomain = 512;
using Bits = std::bitset<kDomain>;

/// The oracle: the same set as explicit membership bits over [0, kDomain).
Bits toBits(const IntervalSet& s) {
  Bits bits;
  for (const Interval& iv : s.pieces()) {
    EXPECT_GE(iv.lo, 0);
    EXPECT_LE(iv.hi, static_cast<std::int64_t>(kDomain));
    for (std::int64_t x = iv.lo; x < iv.hi; ++x) {
      bits.set(static_cast<std::size_t>(x));
    }
  }
  return bits;
}

void expectMatchesOracle(const IntervalSet& s, const Bits& oracle) {
  EXPECT_EQ(toBits(s), oracle);
  EXPECT_EQ(s.cardinality(), static_cast<std::int64_t>(oracle.count()));
  // Invariants: sorted, disjoint, coalesced, non-empty pieces.
  const auto& pieces = s.pieces();
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_LT(pieces[i].lo, pieces[i].hi);
    if (i > 0) {
      EXPECT_LT(pieces[i - 1].hi, pieces[i].lo);
    }
  }
}

Interval randomInterval(Rng& rng) {
  const std::int64_t lo = rng.range(0, kDomain - 1);
  const std::int64_t len = rng.range(0, 40);
  return Interval{lo, std::min<std::int64_t>(lo + len, kDomain)};
}

class IntervalSetProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntervalSetProperties, InsertMatchesBitsetOracle) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    IntervalSet s;
    Bits oracle;
    for (int i = 0; i < 30; ++i) {
      const Interval iv = randomInterval(rng);
      s.insert(iv);
      for (std::int64_t x = iv.lo; x < iv.hi; ++x) {
        oracle.set(static_cast<std::size_t>(x));
      }
      expectMatchesOracle(s, oracle);
      EXPECT_TRUE(iv.lo >= iv.hi || s.contains(iv.lo));
    }
  }
}

TEST_P(IntervalSetProperties, SetAlgebraMatchesBitsetOracle) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    IntervalSet::Builder ba;
    IntervalSet::Builder bb;
    const int piecesA = static_cast<int>(rng.range(0, 12));
    const int piecesB = static_cast<int>(rng.range(0, 12));
    for (int i = 0; i < piecesA; ++i) ba.add(randomInterval(rng));
    for (int i = 0; i < piecesB; ++i) bb.add(randomInterval(rng));
    const IntervalSet a = ba.build();
    const IntervalSet b = bb.build();
    const Bits oa = toBits(a);
    const Bits ob = toBits(b);

    expectMatchesOracle(a.unite(b), oa | ob);
    expectMatchesOracle(a.intersect(b), oa & ob);
    expectMatchesOracle(a.subtract(b), oa & ~ob);
    expectMatchesOracle(b.subtract(a), ob & ~oa);
    EXPECT_EQ(a.intersectCardinality(b),
              static_cast<std::int64_t>((oa & ob).count()));
    EXPECT_EQ(b.intersectCardinality(a),
              static_cast<std::int64_t>((oa & ob).count()));
    EXPECT_EQ(a.containsAll(b), (ob & ~oa).none());

    // Point queries across the whole domain.
    for (int probes = 0; probes < 32; ++probes) {
      const std::int64_t x = rng.range(0, kDomain - 1);
      EXPECT_EQ(a.contains(x), oa.test(static_cast<std::size_t>(x)));
    }
  }
}

TEST_P(IntervalSetProperties, SkewedSizesTakeTheGallopingPathCorrectly) {
  // intersectCardinality and subtract switch to a lower_bound galloping
  // advance when one side has >= 16 pieces and is > 4x denser than the
  // other; the 0..12-piece cases above never reach it. Dense side here:
  // dozens of point-like fragments; sparse side: a handful of wide
  // intervals (including none).
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    IntervalSet::Builder denseBuilder;
    const int densePieces = static_cast<int>(rng.range(20, 150));
    for (int i = 0; i < densePieces; ++i) {
      const std::int64_t lo = rng.range(0, kDomain - 4);
      denseBuilder.add(lo, lo + rng.range(1, 3));
    }
    IntervalSet::Builder sparseBuilder;
    const int sparsePieces = static_cast<int>(rng.range(0, 4));
    for (int i = 0; i < sparsePieces; ++i) {
      sparseBuilder.add(randomInterval(rng));
    }
    const IntervalSet dense = denseBuilder.build();
    const IntervalSet sparse = sparseBuilder.build();
    const Bits od = toBits(dense);
    const Bits os = toBits(sparse);

    EXPECT_EQ(dense.intersectCardinality(sparse),
              static_cast<std::int64_t>((od & os).count()));
    EXPECT_EQ(sparse.intersectCardinality(dense),
              static_cast<std::int64_t>((od & os).count()));
    expectMatchesOracle(sparse.subtract(dense), os & ~od);
    expectMatchesOracle(dense.subtract(sparse), od & ~os);
  }
}

TEST_P(IntervalSetProperties, BuilderOrderDoesNotAffectTheResult) {
  // normalize() skips its sort when the input is already ascending;
  // building from sorted and shuffled permutations of the same
  // intervals must produce identical (canonical) sets.
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    std::vector<Interval> intervals;
    const int pieces = static_cast<int>(rng.range(0, 40));
    for (int i = 0; i < pieces; ++i) intervals.push_back(randomInterval(rng));

    std::vector<Interval> sorted = intervals;
    std::sort(sorted.begin(), sorted.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    IntervalSet::Builder fromSorted;
    for (const Interval& iv : sorted) fromSorted.add(iv);

    rng.shuffle(intervals);
    IntervalSet::Builder fromShuffled;
    for (const Interval& iv : intervals) fromShuffled.add(iv);

    const IntervalSet a = fromSorted.build();
    const IntervalSet b = fromShuffled.build();
    EXPECT_EQ(a, b);
    expectMatchesOracle(a, toBits(b));
  }
}

TEST_P(IntervalSetProperties, AddStridedRunMatchesPerPointAdds) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::int64_t stride = rng.range(1, 9);
    const std::int64_t count = rng.range(0, 30);
    const std::int64_t lo = rng.range(0, 100);

    IntervalSet::Builder bulk;
    bulk.addStridedRun(lo, stride, count);
    IntervalSet::Builder perPoint;
    for (std::int64_t k = 0; k < count; ++k) {
      perPoint.addPoint(lo + k * stride);
    }
    EXPECT_EQ(bulk.build(), perPoint.build());

    // And against the StridedInterval expansion (the other exact
    // representation of the same progression).
    const StridedInterval run{lo, std::max<std::int64_t>(stride, 1), count};
    IntervalSet::Builder viaRun;
    viaRun.addStridedRun(lo, run.stride, run.count);
    EXPECT_EQ(viaRun.build(), run.toIntervalSet());
  }
}

TEST_P(IntervalSetProperties, SubtractThenAddBackRoundTrips) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    IntervalSet::Builder ba;
    IntervalSet::Builder bb;
    for (int i = 0; i < 8; ++i) ba.add(randomInterval(rng));
    for (int i = 0; i < 8; ++i) bb.add(randomInterval(rng));
    const IntervalSet a = ba.build();
    const IntervalSet b = bb.build();
    // (a \ b) ∪ (a ∩ b) == a, and the two parts are disjoint.
    const IntervalSet diff = a.subtract(b);
    const IntervalSet both = a.intersect(b);
    EXPECT_EQ(diff.unite(both), a);
    EXPECT_EQ(diff.intersectCardinality(both), 0);
    EXPECT_EQ(diff.cardinality() + both.cardinality(), a.cardinality());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperties,
                         ::testing::Values(7, 1234, 987654, 31415926));

}  // namespace
}  // namespace laps