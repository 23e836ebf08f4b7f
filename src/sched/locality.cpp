#include "sched/locality.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "util/error.h"

namespace laps {

std::vector<std::pair<ProcessId, ProcessId>> LocalityPlan::successivePairs()
    const {
  std::vector<std::pair<ProcessId, ProcessId>> pairs;
  for (const auto& plan : perCore) {
    for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
      pairs.emplace_back(plan[i], plan[i + 1]);
    }
  }
  return pairs;
}

std::size_t LocalityPlan::processCount() const {
  std::size_t total = 0;
  for (const auto& plan : perCore) total += plan.size();
  return total;
}

namespace {

/// Validates the planner inputs and returns the planned ids in
/// ascending order: every process for an empty subset, else the subset
/// (sorted unless it already is, as the OLS rebuild's live list).
std::vector<ProcessId> plannedIds(const ExtendedProcessGraph& graph,
                                  const SharingMatrix& sharing,
                                  std::size_t coreCount,
                                  std::span<const ProcessId> subset) {
  check(coreCount >= 1, "buildLocalityPlan: need at least one core");
  check(sharing.size() == graph.processCount(),
        "buildLocalityPlan: sharing matrix size mismatch");
  check(graph.isAcyclic(), "buildLocalityPlan: graph has a cycle");
  std::vector<ProcessId> ids(subset.begin(), subset.end());
  if (subset.empty()) {
    ids.resize(graph.processCount());
    for (ProcessId p = 0; p < ids.size(); ++p) ids[p] = p;
    return ids;
  }
  if (!std::is_sorted(ids.begin(), ids.end())) std::sort(ids.begin(), ids.end());
  check(ids.back() < graph.processCount(),
        "buildLocalityPlan: subset id out of range");
  check(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
        "buildLocalityPlan: duplicate subset id");
  return ids;
}

/// IN = independent processes (EPG roots) — for a subset, the members
/// with no predecessor inside the subset (\p ids, ascending). Ascending
/// id order.
std::vector<ProcessId> initialCandidates(const ExtendedProcessGraph& graph,
                                         const std::vector<ProcessId>& ids,
                                         bool everyProcess) {
  if (everyProcess) return graph.roots();
  std::vector<ProcessId> in;
  for (const ProcessId p : ids) {
    const auto& preds = graph.predecessors(p);
    if (std::none_of(preds.begin(), preds.end(), [&](ProcessId pred) {
          return std::binary_search(ids.begin(), ids.end(), pred);
        })) {
      in.push_back(p);
    }
  }
  return in;
}

/// Fig. 3's initial round: trims IN down to the core count by
/// repeatedly removing the candidate with the maximum total sharing
/// with the other candidates — on class groups, whose members share
/// one total. A group's cells are those of its slot in the class table
/// (SharingMatrix::slotRow): with any other group the cell between the
/// two slots, between two of its members the slot's diagonal, its
/// intra value (the inactive processes are one group in the zero slot,
/// every cell and its intra value 0). So the trim reads |groups|² cells
/// of the class table.
///
/// Each total is computed once, directly as Σ size(h) · cell(g, h)
/// over the other groups plus the intra term: O(|groups|²), no more
/// than the removal passes below. Each removal then takes the
/// smallest remaining member of the worst group, and one pass over the
/// groups subtracts its cell with each group from the total and picks
/// the next worst. Integer sums, so each patched total equals Fig. 3's
/// from-scratch rescan exactly; the pick keeps the rescan's sentinel
/// (the smallest id unless some total exceeds -1) and its smallest-id
/// tie-break. Survivors come back in ascending id. The pick branches:
/// with singleton groups (the closed paper workloads) a new worst is
/// rare, and there the branch-free form measured slower.
void trimToCoreCount(std::vector<ProcessId>& in, const SharingMatrix& sharing,
                     std::size_t coreCount) {
  if (in.size() <= coreCount) return;
  const ClassGroups groups = groupByClass(sharing, in);
  // One slot per group with members left, in any order (the pick is
  // order-independent). The pass over the slots reads totals, reps and
  // fronts, so those are arrays of their own.
  const std::size_t count = groups.count;
  std::vector<std::int64_t> totals(count, 0);
  std::vector<std::uint32_t> slot(count);  // the group's class-table slot
  std::vector<ProcessId> front(count);     // smallest remaining member
  struct Rest {
    std::uint32_t next;  // front's index in groups.members
    std::uint32_t end;   // the group's end index in groups.members
    std::int64_t intra;  // sharing between two members
  };
  std::vector<Rest> rest(count);
  for (std::size_t g = 0; g < count; ++g) {
    rest[g].next = groups.start[g];
    rest[g].end = groups.start[g + 1];
    front[g] = groups.members[rest[g].next];
    slot[g] = sharing.slotOf(front[g]);
    rest[g].intra = rest[g].end - rest[g].next > 1
                        ? sharing.slotRow(slot[g])[slot[g]]
                        : 0;
  }

  std::vector<std::int64_t> sizes(count);
  for (std::size_t g = 0; g < count; ++g) sizes[g] = rest[g].end - rest[g].next;
  for (std::size_t g = 0; g < count; ++g) {
    const std::int64_t* row = sharing.slotRow(slot[g]);
    std::int64_t total = 0;
    for (std::size_t h = 0; h < count; ++h) total += sizes[h] * row[slot[h]];
    totals[g] = total + (sizes[g] - 1) * rest[g].intra - sizes[g] * row[slot[g]];
  }

  // Patches the totals with the removed member's slot row (none: the
  // initial pick) and picks the worst group: (total desc, id asc), or
  // the smallest id when no total exceeds the rescan's -1 sentinel.
  const auto patchAndPick = [&](const std::int64_t* removedRow) {
    std::size_t worst = 0;
    std::int64_t worstSharing = -1;
    ProcessId worstFront = std::numeric_limits<ProcessId>::max();
    for (std::size_t i = 0; i < totals.size(); ++i) {
      if (removedRow != nullptr) totals[i] -= removedRow[slot[i]];
      if (totals[i] > worstSharing ||
          (totals[i] == worstSharing && front[i] < worstFront)) {
        worstSharing = totals[i];
        worstFront = front[i];
        worst = i;
      }
    }
    if (worstSharing > -1) return worst;
    return static_cast<std::size_t>(
        std::min_element(front.begin(), front.end()) - front.begin());
  };
  std::size_t worst = patchAndPick(nullptr);
  for (std::size_t remaining = in.size(); remaining > coreCount;
       --remaining) {
    // The slot row reads the rescan's at(p, removed) for p outside the
    // group (the class table is symmetric by construction); the group's
    // own slot loses its intra value, which the slot row holds on its
    // diagonal, so the patch below nets it out.
    const std::int64_t* removedRow = sharing.slotRow(slot[worst]);
    if (++rest[worst].next < rest[worst].end) {
      front[worst] = groups.members[rest[worst].next];
      totals[worst] += removedRow[slot[worst]] - rest[worst].intra;
    } else {  // emptied: swap-remove the slot
      totals[worst] = totals.back();
      slot[worst] = slot.back();
      front[worst] = front.back();
      rest[worst] = rest.back();
      totals.pop_back();
      slot.pop_back();
      front.pop_back();
      rest.pop_back();
    }
    worst = patchAndPick(removedRow);
  }
  in.clear();
  for (const Rest& survivors : rest) {
    in.insert(in.end(), groups.members.begin() + survivors.next,
              groups.members.begin() + survivors.end);
  }
  std::sort(in.begin(), in.end());
}

/// Places the initial round — one process per core. Distance-blind
/// (no topology): id order onto cores 0..|in|-1, the paper's placement,
/// byte-identical to the pre-NoC loop. With a topology: a region-growing
/// walk over the center-out spiral — each visited tile takes the
/// unplaced candidate maximizing the proximity-weighted sharing with
/// everything already placed, Σ over placed (p @ tile d) of
/// sharing(p, q) × (diameter + 1 − hops(tile, d)); strict `>` over the
/// ascending-id candidate list makes ties fall to the smallest id, and
/// the first tile (all scores 0) takes the smallest id outright.
void placeInitialRound(LocalityPlan& plan, const std::vector<ProcessId>& in,
                       const SharingMatrix& sharing,
                       const NocTopology* topology, std::size_t coreCount) {
  if (topology == nullptr) {
    for (std::size_t c = 0; c < in.size(); ++c) {
      plan.perCore[c].push_back(in[c]);
    }
    return;
  }
  check(topology->nodeCount() == static_cast<std::int64_t>(coreCount),
        "buildLocalityPlan: topology node count != core count");
  const std::int64_t reach = topology->maxHops() + 1;
  std::vector<bool> taken(in.size(), false);
  // (process, tile) pairs already placed, in spiral order.
  std::vector<std::pair<ProcessId, std::int64_t>> placed;
  placed.reserve(in.size());
  for (const std::int64_t tile : topology->spiralOrder()) {
    if (placed.size() == in.size()) break;
    std::size_t bestIdx = 0;
    std::int64_t bestScore = -1;
    bool have = false;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (taken[i]) continue;
      std::int64_t score = 0;
      for (const auto& [p, d] : placed) {
        score += sharing.at(p, in[i]) * (reach - topology->hops(tile, d));
      }
      if (!have || score > bestScore) {
        have = true;
        bestScore = score;
        bestIdx = i;
      }
    }
    taken[bestIdx] = true;
    placed.emplace_back(in[bestIdx], tile);
    plan.perCore[static_cast<std::size_t>(tile)].push_back(in[bestIdx]);
  }
}

}  // namespace

LocalityPlan buildLocalityPlan(const ExtendedProcessGraph& graph,
                               const SharingMatrix& sharing,
                               std::size_t coreCount,
                               const LocalityOptions& options,
                               std::span<const ProcessId> subset) {
  PlanIndex planner;
  return buildLocalityPlan(graph, sharing, coreCount, options, subset, planner);
}

LocalityPlan buildLocalityPlan(const ExtendedProcessGraph& graph,
                               const SharingMatrix& sharing,
                               std::size_t coreCount,
                               const LocalityOptions& options,
                               std::span<const ProcessId> subset,
                               PlanIndex& planner) {
  const std::vector<ProcessId> ids =
      plannedIds(graph, sharing, coreCount, subset);

  LocalityPlan plan;
  plan.perCore.resize(coreCount);
  if (ids.empty()) return plan;

  std::vector<ProcessId> in = initialCandidates(graph, ids, subset.empty());

  if (options.initialMinSharingRound) {
    trimToCoreCount(in, sharing, coreCount);
  } else {
    // Ablation: keep the first X roots in id order.
    while (in.size() > coreCount) in.pop_back();
  }

  // Schedule the initial round (one process per core; id order, or the
  // spiral region-growing walk on NoC platforms — see placeInitialRound).
  placeInitialRound(plan, in, sharing, options.topology, coreCount);

  // Remaining pool: every planned id not yet placed (both ascending).
  std::vector<ProcessId> pending;
  pending.reserve(ids.size() - in.size());
  std::set_difference(ids.begin(), ids.end(), in.begin(), in.end(),
                      std::back_inserter(pending));
  std::size_t remaining = pending.size();

  // --- Main loop on the indexed core: per round, each core pops the
  // ready process with maximum sharing with its previously placed
  // process (smallest id on ties — the argmax order equals an
  // ascending strict-`>` scan over every pending process). place() releases successors
  // through the cached indegree counters.
  planner.beginPlanner(graph, sharing, coreCount, pending);
  while (remaining > 0) {
    bool placedAny = false;
    for (std::size_t c = 0; c < coreCount && remaining > 0; ++c) {
      std::optional<ProcessId> previous;
      if (!plan.perCore[c].empty()) previous = plan.perCore[c].back();

      const std::optional<ProcessId> best = planner.popBest(c, previous);
      if (best) {
        plan.perCore[c].push_back(*best);
        planner.place(*best);
        --remaining;
        placedAny = true;
      }
    }
    // A full round with no placement would loop forever; in a DAG there
    // is always a schedulable pending process, so this indicates a bug.
    check(placedAny || remaining == 0,
          "buildLocalityPlan: no schedulable process in a full round");
  }
  return plan;
}

LocalityScheduler::LocalityScheduler(LocalityOptions options)
    : options_(options) {}

void LocalityScheduler::reset(const SchedContext& context) {
  check(context.graph != nullptr && context.sharing != nullptr,
        "LocalityScheduler: context incomplete");
  plan_ = buildLocalityPlan(*context.graph, *context.sharing,
                            context.coreCount, options_);
  cursor_.assign(context.coreCount, 0);
  index_.beginDispatch(*context.sharing, context.graph->processCount(),
                       context.coreCount);
}

void LocalityScheduler::onReady(ProcessId process) {
  index_.markReady(process);
}

std::optional<ProcessId> LocalityScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < plan_.perCore.size(), "LocalityScheduler: unknown core");

  if (options_.staticPlan) {
    const auto& order = plan_.perCore[core];
    std::size_t& pos = cursor_[core];
    if (pos >= order.size()) return std::nullopt;  // plan exhausted
    const ProcessId next = order[pos];
    if (!index_.isReady(next)) return std::nullopt;  // stall until deps finish
    ++pos;
    return next;
  }

  if (index_.readyCount() == 0) return std::nullopt;

  // First pick on this core: honor the initial min-sharing round of
  // Fig. 3 (the planned first process for this core).
  if (!previous && !plan_.perCore[core].empty()) {
    const ProcessId planned = plan_.perCore[core].front();
    if (index_.isReady(planned)) {
      index_.markUnready(planned);
      return planned;
    }
  }

  // Online Fig. 3 rule: maximize sharing with the process this core ran
  // last, over the ready set (popBest; smallest id on ties).
  return index_.popBest(core, previous);
}

}  // namespace laps
