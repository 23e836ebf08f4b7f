#pragma once
/// \file relayout.h
/// \brief The greedy array re-layout selection of paper Fig. 5.
///
/// The algorithm repeatedly picks the pair of arrays with the highest
/// conflict count; if the pair is "eligible" (the arrays actually compete
/// on a core: accessed by the same process or by two processes scheduled
/// back-to-back on one core) the arrays receive interleaved layouts with
/// opposite phases so they can no longer conflict. It stops when the best
/// remaining pair is below the threshold T (default: the mean conflict
/// count over all pairs).
///
/// The paper states the loop as a rescan: each round takes the largest
/// value among pairs that still have a fresh array (first in row-major
/// order on ties), zeroes it, and stops once that value is <= T. Because
/// a consumed pair sits at 0, which is never above T when T >= 0, and a
/// pair whose arrays are both re-laid out stays that way, the rounds pick
/// exactly the pairs above T in (value desc, x asc, y asc) order, minus
/// those whose arrays were both re-laid out by earlier picks.
/// planRelayout runs that one sorted walk: O(n^2 + k log k) for k pairs
/// above T instead of O(k * n^2). T < 0 is rejected — under the rescan
/// it would make consumed pairs selectable forever.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cache/config.h"
#include "layout/conflict.h"
#include "layout/transform.h"

namespace laps {

/// Predicate deciding whether a pair of arrays competes on a core.
using PairEligibility = std::function<bool(ArrayId, ArrayId)>;

/// Outcome of the Fig. 5 selection.
struct RelayoutPlan {
  /// Per-array transform (identity where untouched); indexed by ArrayId.
  std::vector<LayoutTransform> transforms;
  /// The threshold T the run used.
  std::int64_t threshold = 0;
  /// Pairs examined in order (diagnostics).
  std::vector<std::pair<ArrayId, ArrayId>> examinedPairs;
  /// Number of arrays that received a non-identity layout.
  [[nodiscard]] std::size_t relayoutCount() const;
};

/// Size guard for the interleave transform (engineering refinement over
/// the paper, documented in docs/ARCHITECTURE.md §5): an interleaved
/// array occupies
/// only half of the cache sets, so the transform is counter-productive
/// for arrays whose accessed working set exceeds half the cache — they
/// would thrash against themselves. Arrays above the limit keep their
/// identity layout.
struct RelayoutLimits {
  /// Accessed bytes per array (indexed by ArrayId); empty disables the
  /// guard.
  std::vector<std::int64_t> arrayFootprintBytes;
  /// Maximum footprint eligible for transformation (typically
  /// cache size / 2); 0 disables the guard.
  std::int64_t maxFootprintBytes = 0;

  [[nodiscard]] bool fits(ArrayId array) const {
    if (maxFootprintBytes <= 0 || arrayFootprintBytes.empty()) return true;
    return arrayFootprintBytes.at(array) <= maxFootprintBytes;
  }
};

/// Runs the Fig. 5 greedy selection.
/// \param conflicts   pairwise conflict matrix (not modified)
/// \param cache       supplies the cache page size for the transforms
/// \param eligible    pair competition predicate; pass alwaysEligible()
///                    to consider every pair
/// \param thresholdOverride  use a fixed T instead of the mean
/// \param limits      working-set size guard (see RelayoutLimits)
/// \throws laps::Error when T (fixed or mean) is negative
[[nodiscard]] RelayoutPlan planRelayout(
    const ConflictMatrix& conflicts, const CacheConfig& cache,
    const PairEligibility& eligible,
    std::optional<std::int64_t> thresholdOverride = std::nullopt,
    const RelayoutLimits& limits = {});

/// Eligibility that accepts every pair.
[[nodiscard]] PairEligibility alwaysEligible();

/// Builds the paper's eligibility relation from a per-core schedule:
/// arrays are eligible when some process touches both, or when two
/// processes scheduled successively on the same core touch one each.
/// \param corePlans   per-core ordered process lists (the LS plan)
/// \param footprints  per-process footprints (indexed by ProcessId)
/// \param arrayCount  total number of arrays
[[nodiscard]] PairEligibility scheduleEligibility(
    const std::vector<std::vector<std::uint32_t>>& corePlans,
    std::span<const Footprint> footprints, std::size_t arrayCount);

}  // namespace laps
