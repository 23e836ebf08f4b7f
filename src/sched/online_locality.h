#pragma once
/// \file online_locality.h
/// \brief Replanning locality scheduling for open workloads (extension).
///
/// The paper's LS builds one Fig. 3 plan before execution and never
/// looks back — fine for a closed process set, useless when
/// applications launch and exit at run time: a full rebuild costs
/// O(n^2) sharing lookups per event. OnlineLocalityScheduler keeps a
/// LocalityPlan alive across arrival/exit events instead:
///
///  * onArrival(p) appends p to the core whose most recently planned
///    process shares the most data with p — one O(cores) patch;
///  * onExit(p) deletes p from its core's plan — O(1) amortized;
///  * after more than rebuildThreshold patches accumulate, the plan is
///    rebuilt from scratch over the live set (buildLocalityPlan with a
///    subset), bounding how far the patched plan can drift from the
///    Fig. 3 fixed point. Threshold 0 = rebuild on every event (the
///    most faithful, most expensive setting); a large threshold is
///    pure incremental patching.
///
/// Dispatch is plan-guided and work-conserving: an idle core takes the
/// first *ready* process remaining in its per-core plan; when its plan
/// holds nothing ready it steals by LS's online rule (maximum sharing
/// with the process it ran last) so no core idles while work exists.
/// Dispatched processes leave the plan — the plan always holds exactly
/// the pending work.
///
/// Rebuilds run on the PlanIndex planner core, over an ascending list
/// of the live, undispatched processes that arrival, exit, dispatch and
/// preemption keep up to date, with one planner index reused across
/// rebuilds: a rebuild costs O(live), never a pass over the process
/// universe. Per-core queues hold
/// {process, seq} entries with a reverse map planned[p] = (core, seq):
/// an entry is alive iff the map still points at it, so exits and
/// steals tombstone in O(1) and queues compact when more than half
/// their entries are dead. The steal argmax is one linear scan over the
/// index's ready set, read against the anchor's live class-table row —
/// O(ready) per steal. Golden decision digests
/// (tests/sched/online_locality_test.cpp) and the bench_policy_overhead
/// checksum column pin every decision.
///
/// On NoC platforms (OnlineLocalityOptions::hopWeight > 0) decisions
/// become hop-weighted through the shared LocalityScore:
/// rebuilds take the spiral initial mapping, arrival patches and
/// steals score candidates by the hop-weighted key against each
/// process's home — the core it last ran on, where its warm state
/// sits; a never-ran process has no home and pays no distance penalty,
/// because its first dispatch charges no migration. hopWeight == 0 —
/// the default — keeps every decision bit-identical to the
/// distance-blind policy.
///
/// Under fault injection (docs §13) the engine reports core outages and
/// failures through onCoreDown/onCoreUp. A downed core's pending queue
/// is orphaned on the spot and each orphan, in queue order, re-placed
/// by the arrival patch with no home: the downed core's caches are
/// gone, so raw sharing with each up core's tail is the whole signal,
/// and every placed orphan is the tail the next one scores against.
/// Arrival patches and rebuild placement avoid down cores until they
/// recover (with every core down, the work parks anywhere: dispatch is
/// gated by the engine, not the plan). A crashed process re-enters
/// through onArrival after its onExit — the one case where
/// exit-then-arrival of the same id is legal (scheduler.h).
///
/// On a closed workload no arrival event ever fires, so the reset()-
/// time plan is byte-identical to buildLocalityPlan — i.e. to the
/// static LS plan — at every threshold; the differential test pins
/// that equivalence, and with rebuild-threshold 0 the plan equals a
/// from-scratch rebuild over the live set after every event.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/locality.h"
#include "sched/plan_index.h"
#include "sched/scheduler.h"

namespace laps {

/// Tunables of OnlineLocalityScheduler.
struct OnlineLocalityOptions {
  /// Arrival/exit patches tolerated before the plan is rebuilt from
  /// scratch over the live set (>= 0; 0 rebuilds on every event).
  std::int64_t rebuildThreshold = 8;

  /// NoC platforms: hop penalty per unit of distance in every scoring
  /// decision, in 1/LocalityScore::kSharingScale sharing units (>= 0).
  /// 0 — the default, and the only meaningful value off-NoC — keeps
  /// every decision bit-identical to the distance-blind policy. > 0 (on
  /// a platform with a topology) the scheduler becomes distance-aware
  /// end to end: spiral initial mapping in rebuilds, home-anchored
  /// arrival patches and steals discounted by NoC hops.
  std::int64_t hopWeight = 0;

  /// Preemption quantum in cycles (>= 0). 0 — the default — keeps OLS
  /// non-preemptive (quantum() = nullopt), bit-identical to every
  /// committed run. > 0 the engine suspends a segment at the quantum
  /// and OLS replans the survivor through patchArrival — on NoC
  /// platforms the resume core then pays the distance-scaled migration
  /// penalty (NocConfig::migrationHopCycles), which is the channel the
  /// hop-weighted scoring exists to shrink.
  std::int64_t quantumCycles = 0;

  /// Throws laps::Error on a negative rebuild threshold, hop weight or
  /// quantum. The single source of these constraints: the scheduler's
  /// constructor and makeScheduler both enforce it.
  void validate() const;
};

/// LS with incremental replanning under process arrival/exit (see file
/// comment).
class OnlineLocalityScheduler final : public SchedulerPolicy {
 public:
  explicit OnlineLocalityScheduler(OnlineLocalityOptions options = {});

  void reset(const SchedContext& context) override;
  void onArrival(ProcessId process) override;
  void onExit(ProcessId process) override;
  void onReady(ProcessId process) override;
  void onPreempt(ProcessId process) override;
  void onCoreDown(std::size_t core) override;
  void onCoreUp(std::size_t core) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  [[nodiscard]] std::string name() const override { return "OLS"; }
  /// Preemptive iff OnlineLocalityOptions::quantumCycles > 0.
  [[nodiscard]] std::optional<std::int64_t> quantum() const override {
    if (options_.quantumCycles > 0) return options_.quantumCycles;
    return std::nullopt;
  }

  /// The current (patched or rebuilt) plan — the pending, undispatched
  /// work per core. Right after reset() on a closed workload this is
  /// the full static LS plan. Materializes the live entries of the
  /// tombstone queues (for tests and inspection; O(queued entries)).
  [[nodiscard]] LocalityPlan plan() const;

  /// Decision-work counters (PolicyStats in scheduler.h). Each open-mode
  /// arrival or exit counts exactly one patch or one rebuild.
  [[nodiscard]] PolicyStats stats() const override { return stats_; }

  [[nodiscard]] const LocalityScore* localityScore() const override {
    return &score_;
  }

 private:
  /// One tombstone-queue entry. Alive iff planned_[process] still
  /// records this (core, seq) pair.
  struct PlanEntry {
    ProcessId process = 0;
    std::uint64_t seq = 0;
  };

  /// Where a process is currently planned.
  struct PlanSlot {
    std::size_t core = 0;
    std::uint64_t seq = 0;
  };

  /// True when \p process is in the system and unfinished.
  [[nodiscard]] bool live(ProcessId process) const;

  /// The Fig. 3 plan over \p subset (empty = every process), on the
  /// reused planner index; spiral initial mapping iff distance-aware.
  [[nodiscard]] LocalityPlan buildPlan(std::span<const ProcessId> subset);

  /// Rebuilds the plan over the live set and resets the patch budget.
  void rebuild();

  /// Lists or unlists \p process in pendingIds_ after a change of its
  /// arrival, exit or dispatch state. O(log live) plus the shift.
  void refreshPending(ProcessId process);

  /// Audit (rebuild, under LAPS_AUDIT): pendingIds_ equals a scan of
  /// the universe for live, undispatched processes, ascending.
  void auditPendingIds() const;

  /// placeByPatch from \p process's distance home (none when
  /// distance-blind).
  void patchArrival(ProcessId process);

  /// Appends \p process to the up core whose last planned — or, when
  /// its queue ran dry, last dispatched — process scores the highest
  /// LocalityScore::key against \p process from \p home (ties: lowest
  /// core). With every core down, every core is eligible. A preempted
  /// process is still the anchor of the core it ran on: if that core's
  /// queue ran dry, the core scores sharing.at(p, p), p's whole
  /// footprint, so p stays there unless another core's tail shares all
  /// of it, and the hop term never decides.
  void placeByPatch(ProcessId process, std::optional<std::size_t> home);

  /// Counts one event against the patch budget; returns true when the
  /// caller should rebuild instead of patching.
  [[nodiscard]] bool consumePatchBudget();

  /// Orphans core \p core's pending queue and re-homes every entry, in
  /// queue order, with placeByPatch and no home. Called when the core
  /// goes down, and after a rebuild placed work on a core that is
  /// (still) down.
  void evacuateCore(std::size_t core);

  /// \name Tombstone-queue primitives
  /// @{
  /// Adopts a freshly built plan as the queue state (an empty
  /// LocalityPlan{} empties every queue).
  void adoptPlan(const LocalityPlan& fresh);
  /// Appends \p process to core \p core's queue (must be unplanned).
  void pushPlanned(std::size_t core, ProcessId process);
  /// Kills \p process's queue entry, wherever it is. Idempotent.
  void unplan(ProcessId process);
  [[nodiscard]] bool aliveEntry(std::size_t core, const PlanEntry& entry) const;
  /// Pops dead tail entries so back() is alive or the queue is empty.
  void dropTrailingDead(std::size_t core);
  /// Erases dead entries once they outnumber the live ones.
  void maybeCompact(std::size_t core);
  /// @}

  OnlineLocalityOptions options_;
  const ExtendedProcessGraph* graph_ = nullptr;
  const SharingMatrix* sharing_ = nullptr;
  std::size_t coreCount_ = 0;
  /// The one scoring arithmetic (sharing + optional hop distance).
  /// Distance-aware iff options_.hopWeight > 0 and the platform handed
  /// a topology through SchedContext; also the PlanIndex distance hook.
  LocalityScore score_;
  /// False until the first onArrival: a closed workload never opens, so
  /// the reset()-time full plan stands (it equals the static LS plan).
  bool open_ = false;
  std::vector<bool> arrived_;  // meaningful once open_
  std::vector<bool> exited_;
  std::vector<bool> dispatched_;  // picked and not re-readied
  /// Once open_: the live, undispatched processes, ascending — the
  /// rebuild's subset, kept by arrival, exit, dispatch and preemption
  /// so a rebuild never scans the universe.
  std::vector<ProcessId> pendingIds_;
  /// Last process dispatched on each core — the sharing anchor for
  /// arrival patches when a core's plan has run dry.
  std::vector<std::optional<ProcessId>> anchor_;
  /// Cores the engine reported down (onCoreDown/onCoreUp). Never
  /// planned onto while any core is up; downCount_ caches the popcount
  /// so the fault-free path pays one integer compare per use.
  std::vector<bool> coreDown_;
  std::size_t downCount_ = 0;

  /// \name Dispatch state
  /// @{
  PlanIndex index_;
  /// Planner-mode scratch of every (re)build, reused so a rebuild
  /// resets only what the last one touched.
  PlanIndex planner_;
  std::vector<std::vector<PlanEntry>> queues_;
  std::vector<std::size_t> deadCount_;  // dead entries per queue
  std::vector<std::optional<PlanSlot>> planned_;
  std::uint64_t seqCounter_ = 0;
  /// @}

  std::int64_t patchesSinceRebuild_ = 0;
  PolicyStats stats_;
};

}  // namespace laps
