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
  groups.groupOfSlot.assign(sharing.classCount() + 1, kNone);
  std::vector<std::uint32_t> sizes;
  groups.groupOf.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint32_t& group = groups.groupOfSlot[sharing.slotOf(ids[i])];
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
                      std::size_t coreCount, bool planner) {
  check(coreCount >= 1, "PlanIndex: need at least one core");
  check(sharing.size() == n, "PlanIndex: sharing matrix size mismatch");
  check(n < kNotReady, "PlanIndex: too many processes");
  sharing_ = &sharing;
  coreCount_ = coreCount;
  if (planner && pending_.size() == n) {
    // A plan after a plan over this universe: only the previous plan's
    // entries can be set — its ready processes' positions, its pending
    // ids' flags and buckets.
    for (const ProcessId p : ready_) slot_[p] = kNotReady;
    for (const ProcessId p : pendingIds_) pending_[p] = 0;
    if (bucketOf_.size() == n) {
      for (const ProcessId p : pendingIds_) bucketOf_[p] = kNotReady;
    }
  } else {
    slot_.assign(n, kNotReady);
    pending_.assign(planner ? n : 0, 0);
    indegree_.resize(pending_.size());
    bucketOf_.clear();
  }
  ready_.clear();
  pendingIds_.clear();
  popCount_ = 0;
  candidatesRead_ = 0;
  score_ = nullptr;
  home_.clear();
  bucketed_ = false;
}

void PlanIndex::bucketByClass() {
  ClassGroups groups = groupByClass(*sharing_, pendingIds_);
  if (groups.count == pendingIds_.size()) return;  // all singletons: the plain scan
  bucketed_ = true;
  if (bucketOf_.size() != slot_.size()) bucketOf_.assign(slot_.size(), kNotReady);
  for (std::size_t i = 0; i < pendingIds_.size(); ++i) {
    bucketOf_[pendingIds_[i]] = groups.groupOf[i];
  }
  bucketStart_ = std::move(groups.start);
  bucketOfSlot_ = std::move(groups.groupOfSlot);
  bucketHead_.assign(bucketStart_.begin(), bucketStart_.end() - 1);
  bucketEnd_ = bucketHead_;
  bucketSlot_.resize(groups.count);
  for (std::size_t b = 0; b < groups.count; ++b) {
    bucketSlot_[b] = sharing_->slotOf(groups.members[bucketStart_[b]]);
  }
  dominant_.assign(groups.count, 0);
  run_.resize(pendingIds_.size());
  live_.clear();
  liveSlot_.assign(groups.count, kNotReady);
}

void PlanIndex::pushBucket(ProcessId process) {
  const std::uint32_t b = bucketOf_[process];
  const std::uint32_t head = bucketHead_[b];
  const std::uint32_t end = bucketEnd_[b];
  // A bucket's range holds each of its processes at most once, so a
  // run that reaches the range's end has room before its start.
  if (end < bucketStart_[b + 1]) {  // insert, shifting larger ids right
    std::uint32_t at = end;
    for (; at > head && run_[at - 1] > process; --at) run_[at] = run_[at - 1];
    run_[at] = process;
    bucketEnd_[b] = end + 1;
  } else {  // insert, shifting smaller ids left
    std::uint32_t at = head - 1;
    for (; at + 1 < end && run_[at + 1] < process; ++at) run_[at] = run_[at + 1];
    run_[at] = process;
    bucketHead_[b] = head - 1;
  }
  if (head == end) {
    liveSlot_[b] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(LiveBucket{process, bucketSlot_[b], b});
  } else {
    live_[liveSlot_[b]].top = run_[bucketHead_[b]];
  }
}

void PlanIndex::eraseBucket(ProcessId process) {
  const std::uint32_t b = bucketOf_[process];
  const auto first = run_.begin() + bucketHead_[b];
  const auto last = run_.begin() + bucketEnd_[b];
  if (*first == process) {
    ++bucketHead_[b];
  } else {
    // Not the smallest member: only a markUnready outside popBest.
    const auto at = std::lower_bound(first, last, process);
    std::copy(at + 1, last, at);
    --bucketEnd_[b];
  }
  const std::uint32_t at = liveSlot_[b];
  if (bucketHead_[b] < bucketEnd_[b]) {
    live_[at].top = run_[bucketHead_[b]];
    return;
  }
  // Swap-remove the emptied bucket from the live list.
  live_[at] = live_.back();
  liveSlot_[live_[at].bucket] = at;
  live_.pop_back();
  liveSlot_[b] = kNotReady;
}

bool PlanIndex::dominant(std::uint32_t b) {
  if (dominant_[b] == 0) {
    // The inactive slot's row is all zero: never strictly larger.
    const std::uint32_t s = bucketSlot_[b];
    const std::int64_t* row = sharing_->slotRow(s);
    bool wins = s != 0;
    for (std::size_t t = 0; t < bucketSlot_.size() && wins; ++t) {
      wins = t == b || row[bucketSlot_[t]] < row[s];
    }
    dominant_[b] = wins ? 2 : 1;
  }
  return dominant_[b] == 2;
}

void PlanIndex::enableDistance(const LocalityScore* score) { score_ = score; }

void PlanIndex::setHome(ProcessId process, std::optional<std::size_t> home) {
  check(process < slot_.size(), "PlanIndex::setHome: unknown process");
  if (home_.empty()) home_.assign(slot_.size(), -1);  // the first home
  home_[process] = home ? static_cast<std::int32_t>(*home) : std::int32_t{-1};
}

std::optional<std::size_t> PlanIndex::homeOf(ProcessId process) const {
  check(process < slot_.size(), "PlanIndex::homeOf: unknown process");
  if (home_.empty() || home_[process] < 0) return std::nullopt;
  return static_cast<std::size_t>(home_[process]);
}

std::int64_t PlanIndex::keyFor(std::size_t core, ProcessId q,
                               std::int64_t sharingTerm) const {
  if (score_ == nullptr || !score_->distanceAware()) return sharingTerm;
  std::optional<std::size_t> home;
  if (!home_.empty() && home_[q] >= 0) home = static_cast<std::size_t>(home_[q]);
  return score_->key(sharingTerm, core, home);
}

void PlanIndex::beginPlanner(const ExtendedProcessGraph& graph,
                             const SharingMatrix& sharing,
                             std::size_t coreCount,
                             std::span<const ProcessId> pending) {
  const std::size_t n = graph.processCount();
  reset(sharing, n, coreCount, true);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    check(pending[i] < n && (i == 0 || pending[i - 1] < pending[i]),
          "PlanIndex::beginPlanner: pending ids must be ascending and in "
          "range");
  }
  graph_ = &graph;
  pendingIds_.assign(pending.begin(), pending.end());
  for (const ProcessId q : pendingIds_) pending_[q] = 1;
  bucketByClass();
  // Cached indegrees: a pending process waits only on pending
  // predecessors (a subset member not yet placed); predecessors outside
  // the subset — or already placed — are satisfied. This is the
  // schedulable() predicate of Fig. 3's candidate scan, evaluated once.
  // Ascending ids, so the class buckets' runs fill by appending.
  for (const ProcessId q : pendingIds_) {
    std::uint32_t degree = 0;
    for (const ProcessId pred : graph.predecessors(q)) degree += pending_[pred];
    indegree_[q] = degree;
    if (degree == 0) markReady(q);
  }
}

void PlanIndex::beginDispatch(const SharingMatrix& sharing, std::size_t n,
                              std::size_t coreCount) {
  reset(sharing, n, coreCount, false);
  graph_ = nullptr;
}

void PlanIndex::markReady(ProcessId process) {
  check(process < slot_.size(), "PlanIndex::markReady: unknown process");
  check(!bucketed_ || bucketOf_[process] != kNotReady,
        "PlanIndex::markReady: class buckets hold pending processes only");
  if (slot_[process] != kNotReady) return;
  slot_[process] = static_cast<std::uint32_t>(ready_.size());
  ready_.push_back(process);
  if (bucketed_) pushBucket(process);
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
  if (bucketed_) eraseBucket(process);
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
  if (bucketed_ && (score_ == nullptr || !score_->distanceAware()) &&
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
  candidatesRead_ += ready_.size();
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
  // The anchor's own class first: a live, dominant bucket out-keys
  // every other bucket, so its smallest member is the argmax.
  const std::uint32_t anchorSlot = anchor ? sharing_->slotOf(*anchor) : 0;
  const std::uint32_t own = anchor ? bucketOfSlot_[anchorSlot] : kNotReady;
  if (own != kNotReady && bucketHead_[own] < bucketEnd_[own] && dominant(own)) {
    ++candidatesRead_;
    const ProcessId best = run_[bucketHead_[own]];
    markUnready(best);
    return best;
  }
  // One candidate per non-empty bucket, its smallest ready member, keyed
  // by the raw sharing term: the anchor's class-table row (anchorless,
  // the zero row) at the bucket's slot — in the anchor's own class its
  // diagonal, the intra value. The rows of |classes| slots in all.
  const std::int64_t* row = sharing_->slotRow(anchorSlot);
  const auto keyOf = [row](const LiveBucket& live) { return row[live.slot]; };
  candidatesRead_ += live_.size();
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
  pending_[process] = 0;
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
  if (!bucketed_) return;
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
    const auto first = run_.begin() + bucketHead_[b];
    const auto last = run_.begin() + bucketEnd_[b];
    audit::require(bucketStart_[b] <= bucketHead_[b] &&
                       bucketHead_[b] < bucketEnd_[b] &&
                       bucketEnd_[b] <= bucketStart_[b + 1] &&
                       live.top == *first && live.slot == bucketSlot_[b] &&
                       std::adjacent_find(first, last,
                                          std::greater_equal<>()) == last,
                   "plan index: a live class bucket is empty, stale or "
                   "not an ascending run");
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
    bucketed += bucketEnd_[b] - bucketHead_[b];
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
