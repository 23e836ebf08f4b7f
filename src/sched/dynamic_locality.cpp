#include "sched/dynamic_locality.h"

#include <algorithm>

#include "layout/address_space.h"
#include "layout/conflict.h"
#include "util/error.h"

namespace laps {

void L2ContentionOptions::validate() const { l2Geometry.validate(); }

void DynamicLocalityScheduler::reset(const SchedContext& context) {
  check(context.sharing != nullptr, "DynamicLocalityScheduler: sharing required");
  score_.configure(context.sharing, context.topology);
  ready_.clear();
  aging_.reset(context.sharing->size());
}

void DynamicLocalityScheduler::onReady(ProcessId process) {
  ready_.push_back(process);
}

void DynamicLocalityScheduler::onArrival(ProcessId process) {
  aging_.stamp(process);
}

void DynamicLocalityScheduler::onExit(ProcessId process) {
  const auto it = std::find(ready_.begin(), ready_.end(), process);
  if (it != ready_.end()) ready_.erase(it);
}

std::optional<ProcessId> DynamicLocalityScheduler::pickNext(
    std::size_t /*core*/, std::optional<ProcessId> previous) {
  if (ready_.empty()) return std::nullopt;
  std::size_t bestIdx = 0;
  if (previous) {
    std::int64_t bestSharing = -1;
    std::int64_t bestSeq = -1;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const std::int64_t s = score_.sharing(previous, ready_[i]);
      const std::int64_t seq = aging_.seqOf(ready_[i]);
      // Equal sharing: ArrivalAging decides (earliest arrival in open
      // workloads, plain ready-order FIFO in closed ones).
      const bool better =
          s > bestSharing ||
          (s == bestSharing && ArrivalAging::beatsTie(seq, bestSeq));
      if (better) {
        bestSharing = s;
        bestSeq = seq;
        bestIdx = i;
      }
    }
  }
  const ProcessId chosen = ready_[bestIdx];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(bestIdx));
  return chosen;
}

L2ContentionAwareScheduler::L2ContentionAwareScheduler(
    L2ContentionOptions options)
    : options_(std::move(options)) {
  options_.validate();
}

void L2ContentionAwareScheduler::reset(const SchedContext& context) {
  check(context.sharing != nullptr,
        "L2ContentionAwareScheduler: sharing required");
  check(context.coreCount >= 1,
        "L2ContentionAwareScheduler: need at least one core");
  check(context.workload != nullptr && context.space != nullptr,
        "L2ContentionAwareScheduler: workload and address space required "
        "(footprint conflict analysis)");
  score_.configure(context.sharing, context.topology);
  ready_.clear();
  conflictMemo_.clear();
  runningOn_.assign(context.coreCount, std::nullopt);
  aging_.reset(context.sharing->size());

  // Per-process line occupancy over the shared L2's set space, through
  // the live address layout.
  const std::vector<Footprint> footprints = context.workload->footprints();
  occupancy_.clear();
  occupancy_.reserve(footprints.size());
  const auto sets =
      static_cast<std::size_t>(options_.l2Geometry.numSets());
  for (const Footprint& fp : footprints) {
    std::vector<std::int64_t> occ(sets, 0);
    for (const auto& [array, elements] : fp.perArray()) {
      const std::vector<std::int64_t> one = setOccupancy(
          context.space->byteIntervals(array, elements), options_.l2Geometry);
      for (std::size_t s = 0; s < sets; ++s) occ[s] += one[s];
    }
    occupancy_.push_back(std::move(occ));
  }
}

std::int64_t L2ContentionAwareScheduler::conflictBetween(ProcessId a,
                                                         ProcessId b) {
  check(a < occupancy_.size() && b < occupancy_.size(),
        "L2ContentionAwareScheduler: unknown process");
  const std::uint64_t key =
      static_cast<std::uint64_t>(std::min(a, b)) * occupancy_.size() +
      std::max(a, b);
  const auto it = conflictMemo_.find(key);
  if (it != conflictMemo_.end()) return it->second;
  std::int64_t conflicts = 0;
  const auto& occA = occupancy_[a];
  const auto& occB = occupancy_[b];
  for (std::size_t s = 0; s < occA.size(); ++s) {
    conflicts += occA[s] * occB[s];  // co-mapped line pairs in set s
  }
  conflictMemo_.emplace(key, conflicts);
  return conflicts;
}

void L2ContentionAwareScheduler::onReady(ProcessId process) {
  ready_.push_back(process);
}

std::optional<ProcessId> L2ContentionAwareScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < runningOn_.size(), "L2ContentionAwareScheduler: unknown core");
  if (ready_.empty()) return std::nullopt;
  std::size_t bestIdx = 0;
  std::int64_t bestScore = 0;
  std::int64_t bestSeq = -1;
  bool haveBest = false;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    const ProcessId candidate = ready_[i];
    std::int64_t conflicts = 0;
    for (std::size_t c = 0; c < runningOn_.size(); ++c) {
      if (c == core || !runningOn_[c]) continue;
      conflicts += conflictBetween(candidate, *runningOn_[c]);
    }
    // One co-mapped line pair costs one shared element.
    const std::int64_t score = score_.sharing(previous, candidate) - conflicts;
    const std::int64_t seq = aging_.seqOf(candidate);
    // Equal score: ArrivalAging decides (earliest arrival in open
    // workloads, plain ready-order FIFO in closed ones).
    const bool better =
        !haveBest || score > bestScore ||
        (score == bestScore && ArrivalAging::beatsTie(seq, bestSeq));
    if (better) {
      haveBest = true;
      bestScore = score;
      bestSeq = seq;
      bestIdx = i;
    }
  }
  const ProcessId chosen = ready_[bestIdx];
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(bestIdx));
  runningOn_[core] = chosen;
  return chosen;
}

void L2ContentionAwareScheduler::stopRunning(ProcessId process) {
  for (auto& slot : runningOn_) {
    if (slot == std::optional<ProcessId>{process}) slot.reset();
  }
}

void L2ContentionAwareScheduler::onPreempt(ProcessId process) {
  stopRunning(process);
  onReady(process);
}

void L2ContentionAwareScheduler::onComplete(ProcessId process) {
  stopRunning(process);
}

void L2ContentionAwareScheduler::onArrival(ProcessId process) {
  aging_.stamp(process);
}

void L2ContentionAwareScheduler::onExit(ProcessId process) {
  // A retired process may have been running (no onComplete fires for a
  // retirement): it stops occupying the shared L2 either way. Drop any
  // stale ready entry too.
  stopRunning(process);
  const auto it = std::find(ready_.begin(), ready_.end(), process);
  if (it != ready_.end()) ready_.erase(it);
}

}  // namespace laps
