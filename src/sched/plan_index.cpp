#include "sched/plan_index.h"

#include <algorithm>
#include <functional>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

ClassGroups groupByClass(const SharingMatrix& sharing,
                         std::span<const ProcessId> ids) {
  constexpr std::uint32_t kNone = 0xffffffffU;
  check(ids.empty() || ids.back() < sharing.size(),
        "groupByClass: process id out of range");
  ClassGroups groups;
  // One group per class-table slot: slot 0 gathers every inactive id.
  std::vector<std::uint32_t> groupOfSlot(sharing.classCount() + 1, kNone);
  std::vector<std::uint32_t> sizes;
  groups.groupOf.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint32_t& group = groupOfSlot[sharing.slotOf(ids[i])];
    if (group == kNone) {
      group = static_cast<std::uint32_t>(sizes.size());
      sizes.push_back(0);
    }
    ++sizes[group];
    groups.groupOf[i] = group;
  }
  groups.count = sizes.size();
  groups.start.assign(sizes.size() + 1, 0);
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    groups.start[g + 1] = groups.start[g] + sizes[g];
  }
  std::vector<std::uint32_t> next(groups.start.begin(), groups.start.end() - 1);
  groups.members.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups.members[next[groups.groupOf[i]]++] = ids[i];
  }
  return groups;
}

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
  bucketOf_.clear();
}

void PlanIndex::bucketByClass(const std::vector<bool>& pending) {
  const std::size_t n = pending.size();
  std::vector<ProcessId> ids;
  for (ProcessId p = 0; p < n; ++p) {
    if (pending[p]) ids.push_back(p);
  }
  ClassGroups groups = groupByClass(*sharing_, ids);
  if (groups.count == ids.size()) return;  // all singletons: the plain scan
  bucketOf_.assign(n, kNotReady);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bucketOf_[ids[i]] = groups.groupOf[i];
  }
  bucketStart_ = std::move(groups.start);
  bucketSize_.assign(groups.count, 0);
  bucketSlot_.resize(groups.count);
  for (std::size_t b = 0; b < groups.count; ++b) {
    bucketSlot_[b] = sharing_->slotOf(groups.members[bucketStart_[b]]);
  }
  heap_.assign(ids.size(), 0);
  live_.clear();
  liveSlot_.assign(groups.count, kNotReady);
}

void PlanIndex::pushBucket(ProcessId process) {
  const std::uint32_t b = bucketOf_[process];
  const auto first = heap_.begin() + bucketStart_[b];
  first[bucketSize_[b]] = process;
  std::push_heap(first, first + ++bucketSize_[b], std::greater<>());
  if (bucketSize_[b] == 1) {
    liveSlot_[b] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(LiveBucket{process, bucketSlot_[b], b});
  } else {
    live_[liveSlot_[b]].top = *first;
  }
}

void PlanIndex::eraseBucket(ProcessId process) {
  const std::uint32_t b = bucketOf_[process];
  const auto first = heap_.begin() + bucketStart_[b];
  const auto last = first + bucketSize_[b]--;
  if (*first == process) {
    std::pop_heap(first, last, std::greater<>());
  } else {
    // Not the smallest member: only a markUnready outside popBest.
    *std::find(first, last, process) = *(last - 1);
    std::make_heap(first, last - 1, std::greater<>());
  }
  const std::uint32_t at = liveSlot_[b];
  if (bucketSize_[b] > 0) {
    live_[at].top = *first;
    return;
  }
  // Swap-remove the emptied bucket from the live list.
  live_[at] = live_.back();
  liveSlot_[live_[at].bucket] = at;
  live_.pop_back();
  liveSlot_[b] = kNotReady;
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
                               std::int64_t sharingTerm) const {
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
  bucketByClass(pending);
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
  check(bucketOf_.empty() || bucketOf_[process] != kNotReady,
        "PlanIndex::markReady: class buckets hold pending processes only");
  if (slot_[process] != kNotReady) return;
  slot_[process] = static_cast<std::uint32_t>(ready_.size());
  ready_.push_back(process);
  if (!bucketOf_.empty()) pushBucket(process);
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
  if (!bucketOf_.empty()) eraseBucket(process);
}

bool PlanIndex::isReady(ProcessId process) const {
  check(process < slot_.size(), "PlanIndex::isReady: unknown process");
  return slot_[process] != kNotReady;
}

std::optional<ProcessId> PlanIndex::popBest(std::size_t core,
                                            std::optional<ProcessId> anchor) {
  check(core < coreCount_, "PlanIndex: unknown core");
  check(!anchor || *anchor < slot_.size(), "PlanIndex: unknown anchor");
  if (ready_.empty()) return std::nullopt;
  // Anchorless, every sharing term is 0: distance-blind the argmax
  // degenerates to the smallest ready id, distance-aware the nearest
  // home wins. The order is independent of the array order.
  ++popCount_;
  LAPS_AUDIT(if (popCount_ % kAuditSampleEvery == 1) auditReadySet());
  if (!bucketOf_.empty() && (score_ == nullptr || !score_->distanceAware()) &&
      !(anchor && slot_[*anchor] != kNotReady)) {
    return popBucketed(anchor);
  }
  // The anchor's class-table row (anchorless, the zero row of slot 0),
  // read at each candidate's slot; the anchor itself, when ready, reads
  // its diagonal (footprint size).
  const SharingMatrix& sharing = *sharing_;
  const std::int64_t* row =
      sharing.slotRow(anchor ? sharing.slotOf(*anchor) : 0);
  const ProcessId self = anchor ? *anchor : kNotReady;
  const std::int64_t selfTerm = anchor ? sharing.at(self, self) : 0;
  const auto termOf = [&](ProcessId q) {
    return q == self ? selfTerm : row[sharing.slotOf(q)];
  };
  // The comparison is evaluated without short-circuit branches: the
  // sharing values repeat (ties are the common case on keyed
  // workloads), so a branch on key == bestKey mispredicts. What is left
  // to branch on, a new best, is rare once the scan is under way.
  ProcessId best = ready_.front();
  std::int64_t bestKey = keyFor(core, best, termOf(best));
  for (std::size_t i = 1; i < ready_.size(); ++i) {
    const ProcessId q = ready_[i];
    const std::int64_t key = keyFor(core, q, termOf(q));
    const bool better = (key > bestKey) | ((key == bestKey) & (q < best));
    best = better ? q : best;
    bestKey = better ? key : bestKey;
  }
  markUnready(best);
  return best;
}

ProcessId PlanIndex::popBucketed(std::optional<ProcessId> anchor) {
  // One candidate per non-empty bucket, its smallest ready member, keyed
  // by the raw sharing term: the anchor's class-table row (anchorless,
  // the zero row) at the bucket's slot — in the anchor's own class its
  // diagonal, the intra value. The rows of |classes| slots in all.
  const std::int64_t* row =
      sharing_->slotRow(anchor ? sharing_->slotOf(*anchor) : 0);
  const auto keyOf = [row](const LiveBucket& live) { return row[live.slot]; };
  ProcessId best = live_.front().top;
  std::int64_t bestKey = keyOf(live_.front());
  for (std::size_t i = 1; i < live_.size(); ++i) {
    const ProcessId q = live_[i].top;
    const std::int64_t key = keyOf(live_[i]);
    const bool better = (key > bestKey) | ((key == bestKey) & (q < best));
    best = better ? q : best;
    bestKey = better ? key : bestKey;
  }
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
  if (bucketOf_.empty()) return;
  // Each bucket entry is a distinct ready process of that bucket's
  // class-table slot, and the entries number readyCount(): every ready
  // process sits in exactly its class's bucket. classSlot is the slot a
  // process's class gives it: the class + 1 while active, the inactive
  // slot 0 (one bucket for all inactive processes) while inactive.
  const auto classSlot = [this](ProcessId p) {
    return sharing_->isActive(p)
               ? static_cast<std::uint32_t>(sharing_->classOf(p) + 1)
               : std::uint32_t{0};
  };
  std::vector<char> seen(slot_.size(), 0);
  std::size_t bucketed = 0;
  for (const LiveBucket& live : live_) {
    const std::uint32_t b = live.bucket;
    const auto first = heap_.begin() + bucketStart_[b];
    const auto last = first + bucketSize_[b];
    audit::require(bucketSize_[b] > 0 && live.top == *first &&
                       live.slot == bucketSlot_[b] &&
                       std::is_heap(first, last, std::greater<>()),
                   "plan index: a live class bucket is empty, stale or "
                   "not a min-heap");
    for (auto it = first; it != last; ++it) {
      const ProcessId q = *it;
      const bool member = q < slot_.size() && slot_[q] != kNotReady &&
                          seen[q] == 0 && bucketOf_[q] == b &&
                          classSlot(q) == bucketSlot_[b];
      audit::require(member, "plan index: a class bucket holds a process "
                             "that is not ready, repeated or of another "
                             "class");
      seen[q] = 1;
    }
    bucketed += bucketSize_[b];
  }
  audit::require(bucketed == ready_.size(),
                 "plan index: a ready process is missing from its class's "
                 "bucket");
}

void PlanIndex::corruptSlotForTest(ProcessId process, std::uint32_t slot) {
  check(process < slot_.size(), "PlanIndex::corruptSlotForTest: unknown process");
  slot_[process] = slot;
}

}  // namespace laps
