#include "layout/relayout.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "util/error.h"

namespace laps {

std::size_t RelayoutPlan::relayoutCount() const {
  std::size_t count = 0;
  for (const auto& t : transforms) {
    if (!t.isIdentity()) ++count;
  }
  return count;
}

PairEligibility alwaysEligible() {
  return [](ArrayId, ArrayId) { return true; };
}

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
    // The paper sets T to the average conflict count over all pairs. We
    // average over the *actionable* pairs (eligible and within the size
    // guard): pairs the algorithm can never transform — e.g. two large
    // streaming arrays — would otherwise inflate T and starve every
    // actionable pair. With fewer than two actionable pairs the
    // actionable mean degenerates (a single pair would block itself), so
    // we fall back to the paper's plain all-pairs mean.
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
  check(plan.threshold >= 0, "planRelayout: threshold T must be >= 0");
  if (n < 2) return plan;

  // Fig. 5's rounds, as one sorted walk (equivalence argument in
  // relayout.h): the pairs above T in (value desc, x asc, y asc) order,
  // skipping those whose arrays are both re-laid out already.
  struct Candidate {
    std::int64_t value;
    ArrayId x;
    ArrayId y;
  };
  std::vector<Candidate> candidates;
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const std::int64_t value = conflicts.at(x, y);
      if (value > plan.threshold) {
        candidates.push_back(
            {value, static_cast<ArrayId>(x), static_cast<ArrayId>(y)});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.value != b.value) return a.value > b.value;
              if (a.x != b.x) return a.x < b.x;
              return a.y < b.y;
            });

  const std::int64_t page = cache.cachePageBytes();
  const std::int64_t half = page / 2;
  const auto opposite = [&](std::int64_t phase) {
    return phase == 0 ? half : std::int64_t{0};
  };
  std::vector<bool> relayouted(n, false);
  for (const auto& [value, x, y] : candidates) {
    if (relayouted[x] && relayouted[y]) continue;
    plan.examinedPairs.emplace_back(x, y);
    if (!eligible(x, y) || !limits.fits(x) || !limits.fits(y)) continue;
    if (relayouted[x]) {
      plan.transforms[y] = LayoutTransform::interleave(
          page, opposite(plan.transforms[x].phase()));
      relayouted[y] = true;
    } else if (relayouted[y]) {
      plan.transforms[x] = LayoutTransform::interleave(
          page, opposite(plan.transforms[y].phase()));
      relayouted[x] = true;
    } else {
      plan.transforms[x] = LayoutTransform::interleave(page, 0);
      plan.transforms[y] = LayoutTransform::interleave(page, half);
      relayouted[x] = true;
      relayouted[y] = true;
    }
  }
  return plan;
}

PairEligibility scheduleEligibility(
    const std::vector<std::vector<std::uint32_t>>& corePlans,
    std::span<const Footprint> footprints, std::size_t arrayCount) {
  // Collect eligible unordered pairs into a flat hash set of packed
  // keys. Contains-only: the set is populated here and then queried by
  // the returned predicate — never iterated — so hash order cannot leak
  // into any result (pinned against a std::set oracle by
  // EligibilityOrderInsensitive in tests/layout/relayout_test.cpp).
  // LINT-ALLOW(unordered-container): contains-only pair set, never iterated; oracle-tested
  auto packed = std::make_shared<std::unordered_set<std::uint64_t>>();
  const auto addPairs = [&](const std::vector<ArrayId>& a,
                            const std::vector<ArrayId>& b) {
    for (const ArrayId x : a) {
      for (const ArrayId y : b) {
        if (x == y) continue;
        const std::uint64_t lo = std::min(x, y);
        const std::uint64_t hi = std::max(x, y);
        packed->insert(lo * arrayCount + hi);
      }
    }
  };
  for (const auto& plan : corePlans) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      check(plan[i] < footprints.size(),
            "scheduleEligibility: process id out of range");
      const auto arrays = footprints[plan[i]].arrays();
      // Arrays within the same process compete with each other.
      addPairs(arrays, arrays);
      // Arrays of successively scheduled processes compete.
      if (i + 1 < plan.size()) {
        addPairs(arrays, footprints[plan[i + 1]].arrays());
      }
    }
  }
  return [packed, arrayCount](ArrayId x, ArrayId y) {
    if (x == y) return false;
    const std::uint64_t lo = std::min(x, y);
    const std::uint64_t hi = std::max(x, y);
    return packed->contains(lo * arrayCount + hi);
  };
}

}  // namespace laps
