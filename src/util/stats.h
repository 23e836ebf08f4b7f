#pragma once
/// \file stats.h
/// \brief Order statistics over integer samples.

#include <cstdint>
#include <vector>

namespace laps {

/// Exact nearest-rank percentile of integer samples: the value at sorted
/// rank ceil(p/100 * n) (1-based; rank 1 for p == 0). Pure integer
/// arithmetic — no rounding ambiguity across platforms — which is what
/// the open-workload engine uses for the p50/p95/p99 sojourn order
/// statistics (no sampling, no interpolation). \p p in [0, 100];
/// \p values must be non-empty.
[[nodiscard]] std::int64_t percentileNearestRank(
    std::vector<std::int64_t> values, int p);

}  // namespace laps
