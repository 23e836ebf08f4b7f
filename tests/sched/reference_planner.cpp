#include "reference_planner.h"

#include <algorithm>

namespace laps::reference {
namespace {

/// IN = independent processes (EPG roots) — for a subset, the members
/// with no predecessor inside the subset. Ascending id order.
std::vector<ProcessId> initialCandidates(const ExtendedProcessGraph& graph,
                                         const std::vector<bool>& inSubset) {
  std::vector<ProcessId> in;
  for (ProcessId p = 0; p < graph.processCount(); ++p) {
    if (!inSubset[p]) continue;
    bool isRoot = true;
    for (const ProcessId pred : graph.predecessors(p)) {
      if (inSubset[pred]) isRoot = false;
    }
    if (isRoot) in.push_back(p);
  }
  return in;
}

/// The initial round: id order onto cores 0..|in|-1 without a topology;
/// with one, each tile of the center-out spiral takes the unplaced
/// candidate maximizing Σ over placed (p @ tile d) of
/// sharing(p, q) × (diameter + 1 − hops(tile, d)), smallest id on ties.
void placeInitialRound(LocalityPlan& plan, const std::vector<ProcessId>& in,
                       const SharingMatrix& sharing,
                       const NocTopology* topology) {
  if (topology == nullptr) {
    for (std::size_t c = 0; c < in.size(); ++c) {
      plan.perCore[c].push_back(in[c]);
    }
    return;
  }
  const std::int64_t reach = topology->maxHops() + 1;
  std::vector<bool> taken(in.size(), false);
  std::vector<std::pair<ProcessId, std::int64_t>> placed;
  for (const std::int64_t tile : topology->spiralOrder()) {
    if (placed.size() == in.size()) break;
    std::optional<std::size_t> best;
    std::int64_t bestScore = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (taken[i]) continue;
      std::int64_t score = 0;
      for (const auto& [p, d] : placed) {
        score += sharing.at(p, in[i]) * (reach - topology->hops(tile, d));
      }
      if (!best || score > bestScore) {
        best = i;
        bestScore = score;
      }
    }
    taken[*best] = true;
    placed.emplace_back(in[*best], tile);
    plan.perCore[static_cast<std::size_t>(tile)].push_back(in[*best]);
  }
}

}  // namespace

LocalityPlan buildPlan(const ExtendedProcessGraph& graph,
                       const SharingMatrix& sharing, std::size_t coreCount,
                       const LocalityOptions& options,
                       std::span<const ProcessId> subset) {
  const std::size_t n = graph.processCount();
  std::vector<bool> inSubset(n, subset.empty());
  for (const ProcessId p : subset) inSubset[p] = true;

  LocalityPlan plan;
  plan.perCore.resize(coreCount);
  std::vector<ProcessId> in = initialCandidates(graph, inSubset);

  // Trim IN down to the core count, removing the candidate with the
  // maximum total sharing with the others; totals rescanned every time.
  if (options.initialMinSharingRound) {
    while (in.size() > coreCount) {
      std::size_t worst = 0;
      std::int64_t worstSharing = -1;
      for (std::size_t i = 0; i < in.size(); ++i) {
        std::int64_t total = 0;
        for (std::size_t j = 0; j < in.size(); ++j) {
          if (i != j) total += sharing.at(in[i], in[j]);
        }
        if (total > worstSharing) {
          worstSharing = total;
          worst = i;
        }
      }
      in.erase(in.begin() + static_cast<std::ptrdiff_t>(worst));
    }
  } else {
    in.resize(std::min(in.size(), coreCount));
  }
  placeInitialRound(plan, in, sharing, options.topology);

  std::vector<bool> pending = inSubset;
  std::vector<bool> placed(n, false);
  for (const ProcessId p : in) {
    pending[p] = false;
    placed[p] = true;
  }
  // A predecessor outside the subset is satisfied by assumption.
  const auto schedulable = [&](ProcessId q) {
    for (const ProcessId pred : graph.predecessors(q)) {
      if (inSubset[pred] && !placed[pred]) return false;
    }
    return true;
  };

  // Per round, each core takes the schedulable pending process with
  // maximum sharing with its previously placed one (0 for an empty core).
  bool placedAny = true;
  while (placedAny) {
    placedAny = false;
    for (std::size_t c = 0; c < coreCount; ++c) {
      std::optional<ProcessId> best;
      std::int64_t bestSharing = -1;
      for (ProcessId q = 0; q < n; ++q) {
        if (!pending[q] || !schedulable(q)) continue;
        const std::int64_t s =
            plan.perCore[c].empty() ? 0 : sharing.at(plan.perCore[c].back(), q);
        if (s > bestSharing) {
          bestSharing = s;
          best = q;
        }
      }
      if (!best) continue;
      plan.perCore[c].push_back(*best);
      pending[*best] = false;
      placed[*best] = true;
      placedAny = true;
    }
  }
  return plan;
}

std::optional<ProcessId> pickMaxSharing(const std::vector<bool>& ready,
                                        const SharingMatrix& sharing,
                                        std::optional<ProcessId> previous) {
  std::optional<ProcessId> best;
  std::int64_t bestSharing = -1;
  for (ProcessId q = 0; q < ready.size(); ++q) {
    if (!ready[q]) continue;
    const std::int64_t s = previous ? sharing.at(*previous, q) : 0;
    if (s > bestSharing) {
      bestSharing = s;
      best = q;
    }
  }
  return best;
}

}  // namespace laps::reference
