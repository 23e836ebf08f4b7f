#include "reference_relayout.h"

namespace laps::reference {

RelayoutPlan planRelayout(const ConflictMatrix& conflicts,
                          const CacheConfig& cache,
                          const PairEligibility& eligible,
                          std::optional<std::int64_t> thresholdOverride,
                          const RelayoutLimits& limits) {
  const std::size_t n = conflicts.size();
  RelayoutPlan plan;
  plan.transforms.assign(n, LayoutTransform{});
  if (thresholdOverride) {
    plan.threshold = *thresholdOverride;
  } else if (n >= 2) {
    // Mean over the actionable pairs (eligible and within the size
    // guard); the plain all-pairs mean with fewer than two of them.
    std::int64_t total = 0;
    std::int64_t count = 0;
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; ++y) {
        if (!eligible(static_cast<ArrayId>(x), static_cast<ArrayId>(y))) continue;
        if (!limits.fits(static_cast<ArrayId>(x)) ||
            !limits.fits(static_cast<ArrayId>(y))) {
          continue;
        }
        total += conflicts.at(x, y);
        ++count;
      }
    }
    plan.threshold =
        count > 1 ? total / count : conflicts.averagePairConflicts();
  }
  if (n < 2) return plan;

  const std::int64_t page = cache.cachePageBytes();
  const std::int64_t half = page / 2;
  std::vector<bool> relayouted(n, false);

  // Working copy of the matrix (entries are zeroed as pairs are consumed).
  ConflictMatrix m(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      m.set(x, y, conflicts.at(x, y));
    }
  }

  // Picks the max-conflict pair among pairs with at least one fresh array;
  // returns false when none remains.
  const auto selectMax = [&](std::size_t& outX, std::size_t& outY) {
    std::int64_t best = -1;
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; ++y) {
        if (relayouted[x] && relayouted[y]) continue;
        if (m.at(x, y) > best) {
          best = m.at(x, y);
          outX = x;
          outY = y;
        }
      }
    }
    return best >= 0;
  };

  std::size_t x = 0;
  std::size_t y = 0;
  if (!selectMax(x, y)) return plan;
  while (m.at(x, y) > plan.threshold) {
    m.set(x, y, 0);
    m.set(y, x, 0);
    plan.examinedPairs.emplace_back(static_cast<ArrayId>(x),
                                    static_cast<ArrayId>(y));
    if (eligible(static_cast<ArrayId>(x), static_cast<ArrayId>(y)) &&
        limits.fits(static_cast<ArrayId>(x)) &&
        limits.fits(static_cast<ArrayId>(y))) {
      const auto opposite = [&](std::int64_t phase) {
        return phase == 0 ? half : std::int64_t{0};
      };
      if (relayouted[x] && !relayouted[y]) {
        plan.transforms[y] = LayoutTransform::interleave(
            page, opposite(plan.transforms[x].phase()));
        relayouted[y] = true;
      } else if (relayouted[y] && !relayouted[x]) {
        plan.transforms[x] = LayoutTransform::interleave(
            page, opposite(plan.transforms[y].phase()));
        relayouted[x] = true;
      } else if (!relayouted[x] && !relayouted[y]) {
        plan.transforms[x] = LayoutTransform::interleave(page, 0);
        plan.transforms[y] = LayoutTransform::interleave(page, half);
        relayouted[x] = true;
        relayouted[y] = true;
      }
    }
    if (!selectMax(x, y)) break;
  }
  return plan;
}

}  // namespace laps::reference
