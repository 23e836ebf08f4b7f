#include "util/stats.h"

#include <algorithm>

#include "util/error.h"

namespace laps {

std::int64_t percentileNearestRank(std::vector<std::int64_t> values, int p) {
  check(!values.empty(), "percentileNearestRank of empty set");
  check(p >= 0 && p <= 100, "percentileNearestRank p must be in [0,100]");
  std::sort(values.begin(), values.end());
  // ceil(p/100 * n) in integers; rank is 1-based and at least 1.
  const std::size_t n = values.size();
  const std::size_t rank =
      std::max<std::size_t>(1, (static_cast<std::size_t>(p) * n + 99) / 100);
  return values[std::min(rank, n) - 1];
}

}  // namespace laps
