#pragma once
/// \file reference_planner.h
/// \brief Test-only reference implementations of the Fig. 3 planner and
/// the online max-sharing dispatch rule, written as the paper states
/// them: an O(|IN|³) trim that rescans every total per removal, full
/// candidate rescans with a predecessor walk per candidate, and a
/// linear argmax over a ready vector. They share no code with
/// src/sched, so the differential tests compare two independent
/// implementations of the same algorithm.

#include <optional>
#include <span>
#include <vector>

#include "core/laps.h"

namespace laps::reference {

/// The Fig. 3 plan, element-identical to buildLocalityPlan (same
/// subset semantics, same tie-breaks, same spiral initial round when
/// \p options carries a topology).
[[nodiscard]] LocalityPlan buildPlan(const ExtendedProcessGraph& graph,
                                     const SharingMatrix& sharing,
                                     std::size_t coreCount,
                                     const LocalityOptions& options = {},
                                     std::span<const ProcessId> subset = {});

/// Among ready processes (ready[q] == true), the one maximizing sharing
/// with \p previous — smallest id on ties; without a previous process
/// the first ready one wins. nullopt when nothing is ready.
[[nodiscard]] std::optional<ProcessId> pickMaxSharing(
    const std::vector<bool>& ready, const SharingMatrix& sharing,
    std::optional<ProcessId> previous);

}  // namespace laps::reference
