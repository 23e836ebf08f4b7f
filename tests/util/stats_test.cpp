#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace laps {
namespace {

/// Count-based oracle for the integer nearest-rank percentile: the
/// smallest value whose cumulative sample count covers p percent.
std::int64_t countOracle(std::vector<std::int64_t> values, int p) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (std::size_t i = 1; i <= n; ++i) {
    if (i * 100 >= static_cast<std::size_t>(p) * n) return values[i - 1];
  }
  return values[n - 1];
}

TEST(PercentileNearestRank, MatchesCountOracleIncludingTies) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.index(40);
    std::vector<std::int64_t> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // A narrow value range forces heavy ties.
      values.push_back(static_cast<std::int64_t>(rng.below(8)));
    }
    for (const int p : {0, 1, 25, 50, 95, 99, 100}) {
      EXPECT_EQ(percentileNearestRank(values, p), countOracle(values, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(PercentileNearestRank, EdgeCases) {
  // Single element: every percentile is that element.
  for (const int p : {0, 50, 99, 100}) {
    EXPECT_EQ(percentileNearestRank({7}, p), 7);
  }
  // All equal (total tie).
  EXPECT_EQ(percentileNearestRank({3, 3, 3, 3}, 99), 3);
  // Unsorted input is sorted internally; p100 is the maximum, p0/p1 the
  // minimum (rank clamps to 1).
  const std::vector<std::int64_t> v{40, 15, 50, 20, 35};
  EXPECT_EQ(percentileNearestRank(v, 0), 15);
  EXPECT_EQ(percentileNearestRank(v, 1), 15);
  EXPECT_EQ(percentileNearestRank(v, 50), 35);
  EXPECT_EQ(percentileNearestRank(v, 100), 50);
  // p40 of five samples: rank ceil(2.0) = 2, no rounding up past it.
  EXPECT_EQ(percentileNearestRank(v, 40), 20);
}

TEST(PercentileNearestRank, Errors) {
  EXPECT_THROW((void)percentileNearestRank({}, 50), Error);
  EXPECT_THROW((void)percentileNearestRank({1}, -1), Error);
  EXPECT_THROW((void)percentileNearestRank({1}, 101), Error);
}

}  // namespace
}  // namespace laps
