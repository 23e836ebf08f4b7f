#include "sched/online_locality.h"

#include <algorithm>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

void OnlineLocalityOptions::validate() const {
  check(rebuildThreshold >= 0,
        "OnlineLocalityOptions: rebuildThreshold must be >= 0");
  check(hopWeight >= 0, "OnlineLocalityOptions: hopWeight must be >= 0");
  check(quantumCycles >= 0,
        "OnlineLocalityOptions: quantumCycles must be >= 0");
}

OnlineLocalityScheduler::OnlineLocalityScheduler(OnlineLocalityOptions options)
    : options_(options) {
  options_.validate();
}

void OnlineLocalityScheduler::reset(const SchedContext& context) {
  check(context.graph != nullptr && context.sharing != nullptr,
        "OnlineLocalityScheduler: context incomplete");
  check(context.coreCount >= 1,
        "OnlineLocalityScheduler: need at least one core");
  graph_ = context.graph;
  sharing_ = context.sharing;
  coreCount_ = context.coreCount;
  const std::size_t n = graph_->processCount();

  // Closed-workload assumption until the first arrival proves otherwise:
  // plan over the full process set, exactly like LocalityScheduler.
  // In open mode this build is discarded at cohort 0's onArrival —
  // accepted cost: plan() is documented (and differentially tested) to
  // equal the static LS plan right after reset(), so the build cannot
  // be deferred to first dispatch without breaking that contract.
  // Distance-aware iff the user asked (hopWeight > 0) AND the platform
  // has a topology; configure() zeroes the weight otherwise, so every
  // downstream gate reads score_.distanceAware().
  score_.configure(sharing_, context.topology, options_.hopWeight);

  open_ = false;
  arrived_.assign(n, false);
  exited_.assign(n, false);
  dispatched_.assign(n, false);
  anchor_.assign(coreCount_, std::nullopt);
  coreDown_.assign(coreCount_, false);
  downCount_ = 0;
  seqCounter_ = 0;
  planned_.assign(n, std::nullopt);
  pendingIds_.clear();
  // Stale queues from a previous reset must not leak into adoptPlan's
  // slot clearing (their entries may reference a different universe).
  queues_.clear();
  // Index first: adoptPlan's pushPlanned records distance homes in the
  // index, which must already cover this process universe.
  index_.beginDispatch(*sharing_, n, coreCount_);
  index_.enableDistance(&score_);
  adoptPlan(buildPlan({}));
  patchesSinceRebuild_ = 0;
  stats_ = PolicyStats{};
}

bool OnlineLocalityScheduler::live(ProcessId process) const {
  return (!open_ || arrived_[process]) && !exited_[process];
}

void OnlineLocalityScheduler::refreshPending(ProcessId process) {
  const bool member = open_ && live(process) && !dispatched_[process];
  const auto at =
      std::lower_bound(pendingIds_.begin(), pendingIds_.end(), process);
  const bool listed = at != pendingIds_.end() && *at == process;
  if (member && !listed) pendingIds_.insert(at, process);
  if (!member && listed) pendingIds_.erase(at);
}

void OnlineLocalityScheduler::auditPendingIds() const {
  std::vector<ProcessId> scan;
  for (ProcessId p = 0; p < exited_.size(); ++p) {
    if (live(p) && !dispatched_[p]) scan.push_back(p);
  }
  audit::require(scan == pendingIds_,
                 "online locality: the pending list is not the live, "
                 "undispatched processes in ascending order");
}

bool OnlineLocalityScheduler::consumePatchBudget() {
  if (options_.rebuildThreshold == 0) return true;
  if (++patchesSinceRebuild_ > options_.rebuildThreshold) return true;
  return false;
}

// --- Tombstone-queue primitives ----------------------------------------

bool OnlineLocalityScheduler::aliveEntry(std::size_t core,
                                         const PlanEntry& entry) const {
  const std::optional<PlanSlot>& slot = planned_[entry.process];
  return slot && slot->core == core && slot->seq == entry.seq;
}

void OnlineLocalityScheduler::pushPlanned(std::size_t core,
                                          ProcessId process) {
  check(!planned_[process],
        "OnlineLocalityScheduler: process planned twice");
  ++seqCounter_;
  queues_[core].push_back(PlanEntry{process, seqCounter_});
  planned_[process] = PlanSlot{core, seqCounter_};
}

void OnlineLocalityScheduler::unplan(ProcessId process) {
  if (!planned_[process]) return;
  const std::size_t core = planned_[process]->core;
  planned_[process] = std::nullopt;
  ++deadCount_[core];
  maybeCompact(core);
}

void OnlineLocalityScheduler::dropTrailingDead(std::size_t core) {
  auto& queue = queues_[core];
  while (!queue.empty() && !aliveEntry(core, queue.back())) {
    queue.pop_back();
    if (deadCount_[core] > 0) --deadCount_[core];
  }
}

void OnlineLocalityScheduler::maybeCompact(std::size_t core) {
  auto& queue = queues_[core];
  if (queue.size() <= 16 || 2 * deadCount_[core] <= queue.size()) return;
  std::erase_if(queue, [&](const PlanEntry& entry) {
    return !aliveEntry(core, entry);
  });
  deadCount_[core] = 0;
}

void OnlineLocalityScheduler::adoptPlan(const LocalityPlan& fresh) {
  // Clear only the slots the outgoing queues still hold — O(entries)
  // per rebuild, not O(n) (at |T| in the thousands with a small live
  // window, the O(n) fill would dominate the rebuild).
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    for (const PlanEntry& entry : queues_[c]) {
      if (aliveEntry(c, entry)) planned_[entry.process] = std::nullopt;
    }
  }
  queues_.assign(coreCount_, {});
  deadCount_.assign(coreCount_, 0);
  for (std::size_t c = 0; c < fresh.perCore.size(); ++c) {
    for (const ProcessId p : fresh.perCore[c]) pushPlanned(c, p);
  }
}

LocalityPlan OnlineLocalityScheduler::plan() const {
  LocalityPlan live;
  live.perCore.resize(coreCount_);
  for (std::size_t c = 0; c < coreCount_; ++c) {
    for (const PlanEntry& entry : queues_[c]) {
      if (aliveEntry(c, entry)) live.perCore[c].push_back(entry.process);
    }
  }
  return live;
}

// --- Replanning ------------------------------------------------------

LocalityPlan OnlineLocalityScheduler::buildPlan(
    std::span<const ProcessId> subset) {
  LocalityOptions lsOptions;
  if (score_.distanceAware()) lsOptions.topology = score_.topology();
  return buildLocalityPlan(*graph_, *sharing_, coreCount_, lsOptions, subset,
                           planner_);
}

void OnlineLocalityScheduler::rebuild() {
  // The plan covers pending work only: dispatched (running) processes
  // keep their core and are excluded from the rebuild.
  LAPS_AUDIT(auditPendingIds());
  // An empty subset span would mean "everything"; an empty live set
  // means an empty plan.
  adoptPlan(pendingIds_.empty() ? LocalityPlan{} : buildPlan(pendingIds_));
  // buildLocalityPlan places over the full core set; work it put on a
  // down core is orphaned right back to the up cores.
  if (downCount_ > 0 && downCount_ < coreCount_) {
    for (std::size_t c = 0; c < coreCount_; ++c) {
      if (coreDown_[c]) evacuateCore(c);
    }
  }
  patchesSinceRebuild_ = 0;
  ++stats_.rebuilds;
}

void OnlineLocalityScheduler::patchArrival(ProcessId process) {
  // On NoC platforms the patch is discounted by each core's hops from
  // the process's home (the core it last ran on, where its warm state
  // sits; a never-ran process has none and pays no penalty anywhere —
  // its first dispatch charges no migration). Sharing still dominates;
  // among comparable cores the patch lands the process close to its
  // warm tile, which is precisely the distance the migration penalty
  // charges at resume.
  placeByPatch(process,
               score_.distanceAware() ? index_.homeOf(process) : std::nullopt);
}

void OnlineLocalityScheduler::placeByPatch(ProcessId process,
                                           std::optional<std::size_t> home) {
  // Fig. 3's greedy append, applied to one process: the core whose most
  // recently planned — or, when its plan ran dry, last dispatched —
  // process shares the most data with it (an idle-and-empty core scores
  // 0; ties fall to the lowest core index). Down cores are skipped —
  // unless every core is down, in which case the work parks anywhere
  // (dispatch is gated by the engine, not the plan). Without a home
  // LocalityScore::key is the sharing term, scaled or not: the argmax
  // is the raw-sharing one. A core whose anchor is \p process itself (it
  // was preempted there and the queue ran dry) scores its whole
  // footprint: no pair cell exceeds the diagonal.
  const bool skipDown = downCount_ > 0 && downCount_ < coreCount_;
  std::optional<std::size_t> bestCore;
  std::int64_t bestKey = 0;
  for (std::size_t c = 0; c < coreCount_; ++c) {
    if (skipDown && coreDown_[c]) continue;
    dropTrailingDead(c);
    std::int64_t s = 0;
    if (!queues_[c].empty()) {
      s = sharing_->at(queues_[c].back().process, process);
    } else if (anchor_[c]) {
      s = sharing_->at(*anchor_[c], process);
    }
    const std::int64_t key = score_.key(s, c, home);
    if (!bestCore || key > bestKey) {
      bestCore = c;
      bestKey = key;
    }
  }
  pushPlanned(*bestCore, process);
}

void OnlineLocalityScheduler::evacuateCore(std::size_t core) {
  std::vector<ProcessId> orphans;
  for (const PlanEntry& entry : queues_[core]) {
    if (aliveEntry(core, entry)) orphans.push_back(entry.process);
  }
  for (const ProcessId p : orphans) planned_[p] = std::nullopt;
  queues_[core].clear();
  deadCount_[core] = 0;
  // The downed core's caches are gone, so an orphan has no warm tile to
  // stay near: it is placed with no home, and each placed orphan is the
  // tail the next one scores against.
  for (const ProcessId p : orphans) placeByPatch(p, std::nullopt);
  stats_.offloads += orphans.size();
}

// --- Engine events ---------------------------------------------------

void OnlineLocalityScheduler::onCoreDown(std::size_t core) {
  check(core < coreCount_, "OnlineLocalityScheduler: unknown core");
  if (coreDown_[core]) return;
  coreDown_[core] = true;
  ++downCount_;
  // The caches the core warmed are gone (it recovers cold, if ever), so
  // its dispatch anchor is meaningless from here on.
  anchor_[core].reset();
  evacuateCore(core);
}

void OnlineLocalityScheduler::onCoreUp(std::size_t core) {
  check(core < coreCount_, "OnlineLocalityScheduler: unknown core");
  if (!coreDown_[core]) return;
  coreDown_[core] = false;
  --downCount_;
  // Nothing to replan eagerly: the recovered core starts by stealing
  // (it has no anchor and an empty queue) and wins arrival patches
  // again from here on.
}

void OnlineLocalityScheduler::onArrival(ProcessId process) {
  check(process < exited_.size(), "OnlineLocalityScheduler: unknown process");
  if (!open_) {
    // First arrival: this is an open workload after all. The reset-time
    // plan assumed everybody was resident — drop it and plan over what
    // has actually arrived.
    open_ = true;
    adoptPlan(LocalityPlan{});
    patchesSinceRebuild_ = 0;
  }
  // A crashed process re-enters as a fresh arrival after its onExit
  // (fault injection; see scheduler.h) — the one legal exit-then-
  // arrival of the same id.
  const bool reentry = arrived_[process] && exited_[process];
  check(reentry || !arrived_[process],
        "OnlineLocalityScheduler: process arrived twice");
  arrived_[process] = true;
  exited_[process] = false;
  dispatched_[process] = false;
  refreshPending(process);
  if (reentry) {
    // The previous life's warm state died with the crashed core: the
    // retry starts cold, with no home until it runs again.
    if (score_.distanceAware()) index_.setHome(process, std::nullopt);
  }
  if (consumePatchBudget()) {
    rebuild();
  } else {
    patchArrival(process);
    ++stats_.patches;
  }
}

void OnlineLocalityScheduler::onExit(ProcessId process) {
  check(process < exited_.size(), "OnlineLocalityScheduler: unknown process");
  if (exited_[process]) return;
  exited_[process] = true;
  refreshPending(process);
  // Defensive: an exit may race a stale readiness.
  if (index_.isReady(process)) index_.markUnready(process);
  if (!open_) return;  // closed workload: completions never replan
  if (consumePatchBudget()) {
    rebuild();
  } else {
    unplan(process);
    ++stats_.patches;
  }
}

void OnlineLocalityScheduler::onReady(ProcessId process) {
  check(process < exited_.size(), "OnlineLocalityScheduler: unknown process");
  check(live(process), "OnlineLocalityScheduler: ready process not live");
  index_.markReady(process);
}

void OnlineLocalityScheduler::onPreempt(ProcessId process) {
  check(process < exited_.size(), "OnlineLocalityScheduler: unknown process");
  // A suspended process is pending again: plan it back onto a core so
  // plan-guided dispatch (not just the steal fallback) can resume it.
  // It is still the anchor of the core it was preempted on, so when that
  // core's queue ran dry the patch scores it against itself — its whole
  // footprint — and it resumes there unless another core's tail shares
  // all of it (placeByPatch).
  if (dispatched_[process]) {
    dispatched_[process] = false;
    refreshPending(process);
    patchArrival(process);
  }
  onReady(process);
}

std::optional<ProcessId> OnlineLocalityScheduler::pickNext(
    std::size_t core, std::optional<ProcessId> previous) {
  check(core < coreCount_, "OnlineLocalityScheduler: unknown core");
  // The engine never offers a down core work (audited there); the guard
  // keeps direct policy harnesses honest too.
  if (coreDown_[core]) return std::nullopt;

  if (index_.readyCount() == 0) return std::nullopt;

  const auto take = [&](ProcessId p) {
    dispatched_[p] = true;
    refreshPending(p);
    // The process runs — and warms up — here: its distance home is this
    // core until it runs somewhere else.
    if (score_.distanceAware()) index_.setHome(p, core);
    anchor_[core] = p;
    ++stats_.decisions;
    return p;
  };

  // Plan-guided dispatch: the first *alive* entry in this core's queue
  // whose process is ready (skipping tombstones and entries whose
  // dependences are still pending — work conservation beats rigid plan
  // order).
  const auto& queue = queues_[core];
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!aliveEntry(core, queue[i])) continue;
    const ProcessId planned = queue[i].process;
    if (!index_.isReady(planned)) continue;
    unplan(planned);
    index_.markUnready(planned);
    return take(planned);
  }

  // Steal fallback: LS's online rule as the index's ready-set argmax
  // (maximum sharing with the process this core ran last; an exited
  // previous process has a zeroed row, so the rule degrades to
  // smallest-id). The stolen process leaves whichever plan held it.
  const std::optional<ProcessId> best = index_.popBest(core, previous);
  if (!best) return std::nullopt;
  unplan(*best);
  ++stats_.steals;
  return take(*best);
}

}  // namespace laps
