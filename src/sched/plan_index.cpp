#include "sched/plan_index.h"

#include <algorithm>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

void PlanIndex::reset(const SharingMatrix& sharing, std::size_t n,
                      std::size_t coreCount) {
  check(coreCount >= 1, "PlanIndex: need at least one core");
  check(sharing.size() == n, "PlanIndex: sharing matrix size mismatch");
  check(n < kNotReady, "PlanIndex: too many processes");
  sharing_ = &sharing;
  coreCount_ = coreCount;
  ready_.clear();
  ready_.reserve(n);
  slot_.assign(n, kNotReady);
  popCount_ = 0;
  score_ = nullptr;
  home_.assign(n, -1);
}

void PlanIndex::enableDistance(const LocalityScore* score) { score_ = score; }

void PlanIndex::setHome(ProcessId process, std::optional<std::size_t> home) {
  check(process < home_.size(), "PlanIndex::setHome: unknown process");
  home_[process] = home ? static_cast<std::int32_t>(*home) : std::int32_t{-1};
}

std::optional<std::size_t> PlanIndex::homeOf(ProcessId process) const {
  check(process < home_.size(), "PlanIndex::homeOf: unknown process");
  if (home_[process] < 0) return std::nullopt;
  return static_cast<std::size_t>(home_[process]);
}

std::int64_t PlanIndex::keyFor(std::size_t core, ProcessId q,
                               const std::int64_t* row) const {
  const std::int64_t sharingTerm = row ? row[q] : 0;
  if (score_ == nullptr || !score_->distanceAware()) return sharingTerm;
  std::optional<std::size_t> home;
  if (home_[q] >= 0) home = static_cast<std::size_t>(home_[q]);
  return score_->key(sharingTerm, core, home);
}

void PlanIndex::beginPlanner(const ExtendedProcessGraph& graph,
                             const SharingMatrix& sharing,
                             std::size_t coreCount,
                             const std::vector<bool>& pending) {
  const std::size_t n = graph.processCount();
  check(pending.size() == n,
        "PlanIndex::beginPlanner: pending mask size mismatch");
  reset(sharing, n, coreCount);
  graph_ = &graph;
  pending_ = pending;
  indegree_.assign(n, 0);
  // Cached indegrees: a pending process waits only on pending
  // predecessors (a subset member not yet placed); predecessors outside
  // the subset — or already placed — are satisfied. This is the
  // schedulable() predicate of Fig. 3's candidate scan, evaluated once.
  for (ProcessId q = 0; q < n; ++q) {
    if (!pending_[q]) continue;
    std::uint32_t degree = 0;
    for (const ProcessId pred : graph.predecessors(q)) {
      if (pending_[pred]) ++degree;
    }
    indegree_[q] = degree;
    if (degree == 0) markReady(q);
  }
}

void PlanIndex::beginDispatch(const SharingMatrix& sharing, std::size_t n,
                              std::size_t coreCount) {
  reset(sharing, n, coreCount);
  graph_ = nullptr;
  pending_.clear();
  indegree_.clear();
}

void PlanIndex::markReady(ProcessId process) {
  check(process < slot_.size(), "PlanIndex::markReady: unknown process");
  if (slot_[process] != kNotReady) return;
  slot_[process] = static_cast<std::uint32_t>(ready_.size());
  ready_.push_back(process);
}

void PlanIndex::markUnready(ProcessId process) {
  check(process < slot_.size(), "PlanIndex::markUnready: unknown process");
  const std::uint32_t at = slot_[process];
  if (at == kNotReady) return;
  // Swap-remove: the last ready id takes the vacated slot.
  const ProcessId last = ready_.back();
  ready_[at] = last;
  slot_[last] = at;
  ready_.pop_back();
  slot_[process] = kNotReady;
}

bool PlanIndex::isReady(ProcessId process) const {
  check(process < slot_.size(), "PlanIndex::isReady: unknown process");
  return slot_[process] != kNotReady;
}

std::optional<ProcessId> PlanIndex::popBest(std::size_t core,
                                            std::optional<ProcessId> anchor) {
  check(core < coreCount_, "PlanIndex: unknown core");
  if (ready_.empty()) return std::nullopt;
  // Anchorless, every sharing term is 0: distance-blind the argmax
  // degenerates to the smallest ready id, distance-aware the nearest
  // home wins. The order is independent of the array order.
  const std::int64_t* row = anchor ? sharing_->row(*anchor).data() : nullptr;
  // The comparison is evaluated without short-circuit branches: the
  // sharing values repeat (ties are the common case on keyed
  // workloads), so a branch on key == bestKey mispredicts. What is left
  // to branch on, a new best, is rare once the scan is under way.
  ProcessId best = ready_.front();
  std::int64_t bestKey = keyFor(core, best, row);
  for (std::size_t i = 1; i < ready_.size(); ++i) {
    const ProcessId q = ready_[i];
    const std::int64_t key = keyFor(core, q, row);
    const bool better = (key > bestKey) | ((key == bestKey) & (q < best));
    best = better ? q : best;
    bestKey = better ? key : bestKey;
  }
  ++popCount_;
  LAPS_AUDIT(if (popCount_ % kAuditSampleEvery == 1) auditReadySet());
  markUnready(best);
  return best;
}

void PlanIndex::place(ProcessId process) {
  check(graph_ != nullptr, "PlanIndex::place: not in planner mode");
  check(process < pending_.size(), "PlanIndex::place: unknown process");
  pending_[process] = false;
  for (const ProcessId succ : graph_->successors(process)) {
    if (!pending_[succ]) continue;
    check(indegree_[succ] > 0, "PlanIndex::place: indegree accounting");
    if (--indegree_[succ] == 0) markReady(succ);
  }
}

void PlanIndex::auditReadySet() const {
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ProcessId p = ready_[i];
    audit::require(p < slot_.size() && slot_[p] == i,
                   "plan index: a listed ready process's position map "
                   "entry does not point back at its slot");
  }
  const auto flagged = static_cast<std::size_t>(
      std::count_if(slot_.begin(), slot_.end(),
                    [](std::uint32_t at) { return at != kNotReady; }));
  audit::require(flagged == ready_.size(),
                 "plan index: a process flagged ready is missing from the "
                 "ready set");
}

void PlanIndex::corruptSlotForTest(ProcessId process, std::uint32_t slot) {
  check(process < slot_.size(), "PlanIndex::corruptSlotForTest: unknown process");
  slot_[process] = slot;
}

}  // namespace laps
