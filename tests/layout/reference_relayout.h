#pragma once
/// \file reference_relayout.h
/// \brief Test-only reference implementation of the Fig. 5 re-layout
/// selection, written as the paper states it: a working copy of the
/// conflict matrix whose examined cells are zeroed, and a full rescan of
/// every pair for the next maximum after each examined pair. It shares
/// no selection code with src/layout, so the differential tests compare
/// two independent implementations of the same algorithm.

#include <cstdint>
#include <optional>

#include "layout/relayout.h"

namespace laps::reference {

/// The Fig. 5 plan, field-identical to laps::planRelayout (same
/// threshold, same examined pairs in the same order, same transforms).
/// Requires T >= 0: with a negative T the zeroed cells stay selectable
/// and the rescan never returns.
[[nodiscard]] RelayoutPlan planRelayout(
    const ConflictMatrix& conflicts, const CacheConfig& cache,
    const PairEligibility& eligible,
    std::optional<std::int64_t> thresholdOverride = std::nullopt,
    const RelayoutLimits& limits = {});

}  // namespace laps::reference
