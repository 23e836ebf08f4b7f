#pragma once
/// \file locality.h
/// \brief The locality-aware scheduling algorithm of paper Fig. 3.
///
/// Two phases:
///  1. Initial round — from the independent processes (EPG roots), keep
///     the X (= core count) with minimum mutual sharing by iteratively
///     removing the candidate with maximum total sharing to the others
///     (they run concurrently, so sharing between them is wasted).
///  2. Greedy rounds — for each core in turn, append the schedulable
///     process with maximum sharing with the process previously placed
///     on that core.
///
/// The result is a static per-core plan. At run time a core simply waits
/// until the next planned process's dependences are satisfied; the
/// placement order guarantees this never deadlocks (each process waits
/// only on processes placed strictly earlier).

#include <span>
#include <vector>

#include "sched/plan_index.h"
#include "sched/scheduler.h"

namespace laps {

class NocTopology;  // cache/noc.h

/// Static per-core schedule produced by the Fig. 3 algorithm.
struct LocalityPlan {
  /// perCore[c] = ordered processes for core c.
  std::vector<std::vector<ProcessId>> perCore;

  /// Pairs of processes scheduled back-to-back on one core (inputs to
  /// the re-layout eligibility relation).
  [[nodiscard]] std::vector<std::pair<ProcessId, ProcessId>> successivePairs() const;

  /// Total processes placed.
  [[nodiscard]] std::size_t processCount() const;
};

/// Options for ablation studies.
struct LocalityOptions {
  /// Apply the initial min-sharing selection round (Fig. 3 lines 3-6).
  /// Disabled, the first X roots are taken as-is — the ablation
  /// quantifies what the initial round contributes.
  bool initialMinSharingRound = true;

  /// NoC platforms (opt-in): interconnect geometry for the initial
  /// placement. Null — every pre-NoC configuration — keeps the paper's
  /// id-order initial round bit-identically. Set (by the distance-aware
  /// OLS replanner, or explicitly), the initial round becomes a
  /// region-growing walk over the topology's center-out spiral: each
  /// spiral tile takes the candidate with maximum proximity-weighted
  /// sharing to the already-placed ones, so tightly coupled initial
  /// processes land on adjacent central tiles. Greedy rounds are
  /// unchanged (distance enters them through PlanIndex hop-weighted
  /// keys, not here). Non-owning; must outlive the plan build.
  const NocTopology* topology = nullptr;

  /// Execute the Fig. 3 plan rigidly (a core stalls until its next
  /// planned process is ready). The default interprets Fig. 3
  /// operationally — when a core goes idle it picks, among the processes
  /// that are ready *now*, the one with maximum sharing with the process
  /// it just ran (work-conserving, as the in-OS scheduler would behave).
  /// The rigid mode exists for the ablation bench; it trades load balance
  /// for plan fidelity.
  bool staticPlan = false;
};

/// Runs the Fig. 3 algorithm. Requires an acyclic graph; every process is
/// placed on exactly one core.
///
/// A non-empty \p subset restricts the plan to those processes (the
/// open-workload replanner rebuilds over the currently live set):
/// dependences on processes outside the subset are treated as satisfied
/// (they completed, were retired, or — by the cohort arrival model —
/// belong to another task), and only subset members are placed. An
/// empty subset means every process, exactly as before.
///
/// Runs on the indexed planner core (sched/plan_index.h), over sharing
/// classes (SharingMatrix::classOf): processes whose rows agree are one
/// candidate, and every sharing term is a cell of the class table
/// (SharingMatrix::slotRow). The initial trim keeps one total per
/// class, computed once over the classes of IN. Each removal takes the
/// smallest member of the worst class and is one O(classes) pass, where
/// Fig. 3's rescan is O(|IN|²). Cached indegree counters replace the
/// per-candidate predecessor walk, and each placement takes the
/// anchor's own class when it out-keys every other (PlanIndex), else
/// one argmax over the ready classes' smallest members. Every step
/// walks the planned ids, never the universe. The
/// plan is identical — element for element — to the Fig. 3 loops as
/// written; the differential tests in tests/sched/plan_index_test.cpp
/// (against the test-only reference planner) and the equality argument
/// in docs/ARCHITECTURE.md §12 pin it. The trim patches its totals by
/// reading the removed candidate's class row in place of the column
/// Fig. 3's rescan reads, which is the same cell: every SharingMatrix is
/// built from footprints and symmetric by construction.
[[nodiscard]] LocalityPlan buildLocalityPlan(const ExtendedProcessGraph& graph,
                                             const SharingMatrix& sharing,
                                             std::size_t coreCount,
                                             const LocalityOptions& options = {},
                                             std::span<const ProcessId> subset = {});

/// The same plan, built on the caller's \p planner index. An index
/// reused across plans over one universe resets only what the previous
/// plan touched, so a plan over a small subset of a large universe
/// (the OLS rebuild) costs O(|subset|), not O(n); afterwards
/// planner.candidatesRead() reports the plan's argmax work.
[[nodiscard]] LocalityPlan buildLocalityPlan(const ExtendedProcessGraph& graph,
                                             const SharingMatrix& sharing,
                                             std::size_t coreCount,
                                             const LocalityOptions& options,
                                             std::span<const ProcessId> subset,
                                             PlanIndex& planner);

/// The paper's LS policy (LSM reuses it after re-layout).
///
/// Default (online) mode: the Fig. 3 selection rule applied at run time —
/// a core's first process comes from the initial min-sharing round; every
/// subsequent pick maximizes sharing with the process that core ran last,
/// over the currently ready set. Static mode (LocalityOptions::staticPlan)
/// follows the precomputed plan order rigidly.
class LocalityScheduler final : public SchedulerPolicy {
 public:
  explicit LocalityScheduler(LocalityOptions options = {});

  void reset(const SchedContext& context) override;
  void onReady(ProcessId process) override;
  std::optional<ProcessId> pickNext(std::size_t core,
                                    std::optional<ProcessId> previous) override;
  [[nodiscard]] std::string name() const override { return "LS"; }

  /// The plan built at reset() (for inspection and LSM eligibility).
  [[nodiscard]] const LocalityPlan& plan() const { return plan_; }

 private:
  LocalityOptions options_;
  LocalityPlan plan_;
  std::vector<std::size_t> cursor_;  // per-core position (static mode)
  PlanIndex index_;  // dispatch-mode ready index (sched/plan_index.h)
};

}  // namespace laps
