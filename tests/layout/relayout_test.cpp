#include "layout/relayout.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "util/error.h"

namespace laps {
namespace {

CacheConfig paperCache() { return CacheConfig{8192, 2, 32, 2}; }  // page 4096

ConflictMatrix matrixOf(std::size_t n,
                        std::initializer_list<std::tuple<int, int, std::int64_t>> entries) {
  ConflictMatrix m(n);
  for (const auto& [x, y, v] : entries) {
    m.set(static_cast<std::size_t>(x), static_cast<std::size_t>(y), v);
    m.set(static_cast<std::size_t>(y), static_cast<std::size_t>(x), v);
  }
  return m;
}

TEST(PlanRelayout, HottestPairGetsOppositePhases) {
  const auto m = matrixOf(3, {{0, 1, 100}, {0, 2, 10}, {1, 2, 5}});
  // T defaults to mean = (100+10+5)/3 = 38: only (0,1) qualifies.
  const RelayoutPlan plan = planRelayout(m, paperCache(), alwaysEligible());
  EXPECT_EQ(plan.threshold, 38);
  EXPECT_EQ(plan.relayoutCount(), 2u);
  EXPECT_FALSE(plan.transforms[0].isIdentity());
  EXPECT_FALSE(plan.transforms[1].isIdentity());
  EXPECT_TRUE(plan.transforms[2].isIdentity());
  EXPECT_NE(plan.transforms[0].phase(), plan.transforms[1].phase());
  EXPECT_EQ(plan.transforms[0].pageBytes(), 4096);
}

TEST(PlanRelayout, ChainsPhasesThroughSharedArray) {
  // (0,1) hottest, then (1,2): 2 must get the opposite phase of 1.
  const auto m = matrixOf(3, {{0, 1, 100}, {1, 2, 90}, {0, 2, 1}});
  const RelayoutPlan plan =
      planRelayout(m, paperCache(), alwaysEligible(), /*threshold=*/50);
  EXPECT_EQ(plan.relayoutCount(), 3u);
  EXPECT_NE(plan.transforms[0].phase(), plan.transforms[1].phase());
  EXPECT_NE(plan.transforms[1].phase(), plan.transforms[2].phase());
  // With two phases, 0 and 2 necessarily coincide.
  EXPECT_EQ(plan.transforms[0].phase(), plan.transforms[2].phase());
}

TEST(PlanRelayout, ThresholdStopsSelection) {
  const auto m = matrixOf(3, {{0, 1, 100}, {0, 2, 10}, {1, 2, 5}});
  const RelayoutPlan plan =
      planRelayout(m, paperCache(), alwaysEligible(), /*threshold=*/1000);
  EXPECT_EQ(plan.relayoutCount(), 0u);
  EXPECT_TRUE(plan.examinedPairs.empty());
}

TEST(PlanRelayout, IneligiblePairsSkippedButConsumed) {
  const auto m = matrixOf(2, {{0, 1, 100}});
  const RelayoutPlan plan = planRelayout(
      m, paperCache(), [](ArrayId, ArrayId) { return false; }, 10);
  EXPECT_EQ(plan.relayoutCount(), 0u);
  ASSERT_EQ(plan.examinedPairs.size(), 1u);  // pair was examined, not acted on
}

TEST(PlanRelayout, PairWithBothRelayoutedNotRevisited) {
  // After (0,1) and (2,3) are re-layouted, the (0,2) pair (both already
  // transformed) must not be selected again.
  const auto m =
      matrixOf(4, {{0, 1, 100}, {2, 3, 90}, {0, 2, 80}, {1, 3, 1}});
  const RelayoutPlan plan =
      planRelayout(m, paperCache(), alwaysEligible(), /*threshold=*/50);
  EXPECT_EQ(plan.relayoutCount(), 4u);
  for (const auto& [x, y] : plan.examinedPairs) {
    EXPECT_NE(std::make_pair(ArrayId{0}, ArrayId{2}), std::make_pair(x, y));
  }
}

TEST(PlanRelayout, EmptyAndSingletonMatrices) {
  EXPECT_EQ(planRelayout(ConflictMatrix(), paperCache(), alwaysEligible())
                .relayoutCount(),
            0u);
  EXPECT_EQ(planRelayout(ConflictMatrix(1), paperCache(), alwaysEligible())
                .relayoutCount(),
            0u);
}

TEST(PlanRelayout, ZeroConflictsNothingToDo) {
  const ConflictMatrix m(4);
  const RelayoutPlan plan = planRelayout(m, paperCache(), alwaysEligible());
  EXPECT_EQ(plan.relayoutCount(), 0u);
  EXPECT_EQ(plan.threshold, 0);
}

TEST(PlanRelayout, NegativeThresholdRejected) {
  // Under the rescan form of Fig. 5 a negative T made the consumed
  // (zeroed) pairs selectable forever: with one pair ineligible this
  // input never returned. It is now an eager error.
  const auto m = matrixOf(3, {{0, 1, 100}, {0, 2, 10}, {1, 2, 5}});
  const PairEligibility allButFirst = [](ArrayId x, ArrayId y) {
    return !(x == 0 && y == 1);
  };
  EXPECT_THROW((void)planRelayout(m, paperCache(), allButFirst, -1), Error);
  EXPECT_THROW((void)planRelayout(ConflictMatrix(1), paperCache(),
                                  alwaysEligible(), -5),
               Error);
  // A negative mean (only possible from negative cells) is rejected too.
  const auto negative = matrixOf(2, {{0, 1, -4}});
  EXPECT_THROW((void)planRelayout(negative, paperCache(), alwaysEligible()),
               Error);
  EXPECT_NO_THROW((void)planRelayout(m, paperCache(), allButFirst, 0));
}

TEST(ScheduleEligibility, SameProcessArraysCompete) {
  std::vector<Footprint> fps(1);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[0].add(1, IntervalSet::range(0, 10));
  const auto eligible =
      scheduleEligibility({{0}}, fps, /*arrayCount=*/3);
  EXPECT_TRUE(eligible(0, 1));
  EXPECT_TRUE(eligible(1, 0));
  EXPECT_FALSE(eligible(0, 2));
  EXPECT_FALSE(eligible(0, 0));  // self never competes
}

TEST(ScheduleEligibility, SuccessiveProcessesOnSameCoreCompete) {
  std::vector<Footprint> fps(3);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[1].add(1, IntervalSet::range(0, 10));
  fps[2].add(2, IntervalSet::range(0, 10));
  // Core 0 runs P0 then P1; core 1 runs P2 alone.
  const auto eligible = scheduleEligibility({{0, 1}, {2}}, fps, 3);
  EXPECT_TRUE(eligible(0, 1));
  EXPECT_FALSE(eligible(0, 2));
  EXPECT_FALSE(eligible(1, 2));
}

TEST(ScheduleEligibility, NonAdjacentProcessesDoNotCompete) {
  std::vector<Footprint> fps(3);
  fps[0].add(0, IntervalSet::range(0, 10));
  fps[1].add(1, IntervalSet::range(0, 10));
  fps[2].add(2, IntervalSet::range(0, 10));
  // Core 0 runs P0, P1, P2: (0,1) and (1,2) compete, (0,2) does not.
  const auto eligible = scheduleEligibility({{0, 1, 2}}, fps, 3);
  EXPECT_TRUE(eligible(0, 1));
  EXPECT_TRUE(eligible(1, 2));
  EXPECT_FALSE(eligible(0, 2));
}

TEST(ScheduleEligibility, EligibilityOrderInsensitive) {
  // The determinism contract's LINT-ALLOW on relayout.cpp's packed
  // unordered_set rests on the set being contains-only. This pins the
  // claim: the predicate must agree exactly with an ordered std::set
  // oracle built by the same pair-collection walk, for every query —
  // if hash order could leak into any answer, some (x, y) would differ.
  constexpr std::size_t kProcesses = 12;
  constexpr std::size_t kArrays = 20;
  std::vector<Footprint> fps(kProcesses);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    // Overlapping array sets: process p touches arrays p..p+4 (mod 20).
    for (std::size_t a = 0; a < 5; ++a) {
      fps[p].add(static_cast<ArrayId>((p + a * 3) % kArrays),
                 IntervalSet::range(0, 10));
    }
  }
  const std::vector<std::vector<std::uint32_t>> plans = {
      {0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11}};
  const auto eligible = scheduleEligibility(plans, fps, kArrays);

  // Order-insensitive oracle of the documented semantics.
  std::set<std::pair<ArrayId, ArrayId>> oracle;
  const auto addPairs = [&](const std::vector<ArrayId>& a,
                            const std::vector<ArrayId>& b) {
    for (const ArrayId x : a) {
      for (const ArrayId y : b) {
        if (x != y) oracle.emplace(std::min(x, y), std::max(x, y));
      }
    }
  };
  for (const auto& plan : plans) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      addPairs(fps[plan[i]].arrays(), fps[plan[i]].arrays());
      if (i + 1 < plan.size()) {
        addPairs(fps[plan[i]].arrays(), fps[plan[i + 1]].arrays());
      }
    }
  }
  for (ArrayId x = 0; x < kArrays; ++x) {
    for (ArrayId y = 0; y < kArrays; ++y) {
      const bool expected =
          x != y && oracle.count({std::min(x, y), std::max(x, y)}) > 0;
      EXPECT_EQ(eligible(x, y), expected) << "x=" << x << " y=" << y;
    }
  }
}

}  // namespace
}  // namespace laps
