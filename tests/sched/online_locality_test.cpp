/// \file online_locality_test.cpp
/// \brief OnlineLocalityScheduler: closed-workload equivalence with the
/// static LS plan, incremental patch/rebuild behavior under arrival and
/// exit events, and parameter validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/laps.h"

namespace laps {
namespace {

void expectPlansEqual(const LocalityPlan& a, const LocalityPlan& b) {
  ASSERT_EQ(a.perCore.size(), b.perCore.size());
  for (std::size_t c = 0; c < a.perCore.size(); ++c) {
    ASSERT_EQ(a.perCore[c], b.perCore[c]) << "core " << c;
  }
}

TEST(OnlineLocalityOptions, RejectsNegativeThreshold) {
  OnlineLocalityOptions options;
  options.rebuildThreshold = -1;
  EXPECT_THROW(options.validate(), Error);
  EXPECT_THROW(OnlineLocalityScheduler{options}, Error);
  SchedulerParams params;
  params.onlineLocality.rebuildThreshold = -5;
  EXPECT_THROW(makeScheduler(SchedulerKind::OnlineLocality, params), Error);
  // Threshold 0 (rebuild every event) is valid.
  params.onlineLocality.rebuildThreshold = 0;
  EXPECT_NE(makeScheduler(SchedulerKind::OnlineLocality, params), nullptr);
}

TEST(OnlineLocality, ClosedWorkloadPlanMatchesStaticLocalityPlan) {
  // On a closed workload no arrival event ever fires: the reset()-time
  // plan must be the static Fig. 3 plan, at threshold 0 and beyond.
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 2);
  const SharingMatrix sharing = SharingMatrix::compute(mix.footprints());
  const LocalityPlan reference =
      buildLocalityPlan(mix.graph, sharing, 8);

  for (const std::int64_t threshold : {std::int64_t{0}, std::int64_t{8}}) {
    OnlineLocalityOptions options;
    options.rebuildThreshold = threshold;
    OnlineLocalityScheduler policy(options);
    policy.reset(SchedContext{&mix.graph, &sharing, 8});
    expectPlansEqual(policy.plan(), reference);
  }
}

TEST(OnlineLocality, ClosedWorkloadSimulationCompletes) {
  // Full simulation under OLS on a closed workload: every process runs,
  // and the policy never strands work.
  const Application app = makeShape();
  const auto r =
      runExperiment(app.workload, SchedulerKind::OnlineLocality, {});
  EXPECT_EQ(r.schedulerName, "OLS");
  EXPECT_GT(r.sim.makespanCycles, 0);
  for (const auto& p : r.sim.processes) {
    EXPECT_GE(p.completionCycle, 0);
    EXPECT_FALSE(p.retired);
  }
}

/// Four independent processes over one shared array: P0/P1 share a
/// range, P2/P3 share a disjoint range, and nothing crosses the pairs.
struct PatchRig {
  ExtendedProcessGraph graph;
  SharingMatrix sharing{4};

  PatchRig() {
    for (int i = 0; i < 4; ++i) {
      ProcessSpec p;
      p.name = "P" + std::to_string(i);
      p.nests.push_back(LoopNest{IterationSpace::box({{0, 10}}), {}, 1});
      graph.addProcess(std::move(p));
    }
    const auto link = [&](std::size_t a, std::size_t b, std::int64_t s) {
      sharing.set(a, b, s);
      sharing.set(b, a, s);
    };
    link(0, 1, 100);
    link(2, 3, 100);
    for (int i = 0; i < 4; ++i) sharing.set(i, i, 10);
  }
};

TEST(OnlineLocality, ArrivalPatchAppendsToMaxSharingCore) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 100;  // pure incremental patching
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});

  // First arrival opens the workload: the closed-assumption plan is
  // dropped and P0 lands on core 0.
  policy.onArrival(0);
  ASSERT_EQ(policy.plan().perCore[0], std::vector<ProcessId>{0});
  EXPECT_TRUE(policy.plan().perCore[1].empty());

  // P2 shares nothing with P0 — both cores score 0, tie falls to core 0
  // whose plan is nonempty... unless sharing says otherwise: P1 shares
  // 100 with P0, so it must join P0's core; P2 starts core 1's plan
  // after P3? Exercise the actual rule:
  policy.onArrival(1);  // sharing(0, 1) = 100 > 0 -> core 0
  ASSERT_EQ(policy.plan().perCore[0], (std::vector<ProcessId>{0, 1}));
  policy.onArrival(2);  // sharing(1, 2) = 0, empty core 1 ties at 0 ->
                        // lowest core with max score is core 0
  // The greedy append puts P2 wherever the score is maximal; with all
  // scores equal it is core 0. Verify the invariant that matters: P3
  // joins P2's core (sharing 100 beats 0).
  policy.onArrival(3);
  bool p3FollowsP2 = false;
  for (const auto& order : policy.plan().perCore) {
    bool hasP2 = false;
    bool hasP3 = false;
    for (const ProcessId p : order) {
      hasP2 |= (p == 2);
      hasP3 |= (p == 3);
    }
    if (hasP2 && hasP3) p3FollowsP2 = true;
  }
  EXPECT_TRUE(p3FollowsP2);
  EXPECT_EQ(policy.eventCount(), 4u);
  EXPECT_EQ(policy.rebuildCount(), 0u);  // below threshold: only patches
}

TEST(OnlineLocality, ThresholdZeroRebuildsEveryEventToFreshPlan) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 0;
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});

  std::vector<ProcessId> live;
  for (const ProcessId p : {0u, 2u, 1u, 3u}) {
    policy.onArrival(p);
    live.push_back(p);
    std::sort(live.begin(), live.end());
    // Rebuild-every-event: the plan equals a from-scratch
    // buildLocalityPlan over exactly the live set.
    const LocalityPlan reference =
        buildLocalityPlan(rig.graph, rig.sharing, 2, {}, live);
    expectPlansEqual(policy.plan(), reference);
  }
  EXPECT_EQ(policy.rebuildCount(), 4u);

  // Exits rebuild too.
  policy.onExit(0);
  live.erase(live.begin());
  const LocalityPlan reference =
      buildLocalityPlan(rig.graph, rig.sharing, 2, {}, live);
  expectPlansEqual(policy.plan(), reference);
  EXPECT_EQ(policy.rebuildCount(), 5u);
}

TEST(OnlineLocality, ExitPatchRemovesFromPlan) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 100;
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});
  for (const ProcessId p : {0u, 1u, 2u, 3u}) policy.onArrival(p);
  policy.onExit(1);
  for (const auto& order : policy.plan().perCore) {
    for (const ProcessId p : order) {
      EXPECT_NE(p, 1u);
    }
  }
}

TEST(OnlineLocality, RebuildAfterThresholdPatches) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 2;
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});
  policy.onArrival(0);  // patch 1
  policy.onArrival(1);  // patch 2
  EXPECT_EQ(policy.rebuildCount(), 0u);
  policy.onArrival(2);  // patch 3 > threshold -> rebuild
  EXPECT_EQ(policy.rebuildCount(), 1u);
  policy.onArrival(3);  // budget restarted: patch again
  EXPECT_EQ(policy.rebuildCount(), 1u);
}

TEST(OnlineLocality, PlanGuidedDispatchThenSteal) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 100;
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});
  for (const ProcessId p : {0u, 1u, 2u, 3u}) {
    policy.onArrival(p);
    policy.onReady(p);
  }
  // Core 0's plan leads with P0; dispatch follows it.
  const auto core0Plan = policy.plan().perCore[0];
  ASSERT_FALSE(core0Plan.empty());
  const auto first = policy.pickNext(0, std::nullopt);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, core0Plan.front());
  // Drain everything: each ready process is dispatched exactly once.
  std::vector<bool> seen(4, false);
  seen[*first] = true;
  for (int i = 0; i < 3; ++i) {
    const auto pick = policy.pickNext(i % 2, first);
    ASSERT_TRUE(pick.has_value());
    EXPECT_FALSE(seen[*pick]);
    seen[*pick] = true;
  }
  EXPECT_FALSE(policy.pickNext(0, first).has_value());
}

TEST(OnlineLocality, RequiresContext) {
  OnlineLocalityScheduler policy;
  EXPECT_THROW(policy.reset({}), Error);
}

/// Random DAG (edges low id -> high id) and symmetric small-valued
/// sharing: the same generators the PlanIndex differential tests use,
/// here driving whole policies instead of the planner core.
ExtendedProcessGraph randomDag(Rng& rng, std::size_t n,
                               std::uint64_t edgePercent = 15) {
  ExtendedProcessGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "O" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  for (std::size_t to = 1; to < n; ++to) {
    for (std::size_t from = 0; from < to; ++from) {
      if (rng.below(100) < edgePercent) {
        graph.addDependence(static_cast<ProcessId>(from),
                            static_cast<ProcessId>(to));
      }
    }
  }
  return graph;
}

SharingMatrix randomSharing(Rng& rng, std::size_t n,
                            std::uint64_t levels = 8, std::int64_t unit = 1) {
  SharingMatrix sharing(n);
  for (std::size_t p = 0; p < n; ++p) {
    sharing.set(p, p, static_cast<std::int64_t>(rng.below(2 * levels)) * unit);
    for (std::size_t q = 0; q < p; ++q) {
      const auto s = static_cast<std::int64_t>(rng.below(levels)) * unit;
      sharing.set(p, q, s);
      sharing.set(q, p, s);
    }
  }
  return sharing;
}

TEST(OnlineLocality, IndexedMatchesLegacyOnRandomOpenWorkloads) {
  // Lockstep differential: the indexed (tombstone queues + PlanIndex)
  // and legacy (plain vectors + linear scans) implementations receive
  // the identical event stream and must agree on every plan state and
  // every dispatch decision — across rebuild thresholds, including
  // exits of planned-but-never-dispatched processes. Seeds 25 and 26
  // are a deep backlog at the default rebuild threshold: hundreds of
  // dependence-free processes, sharing drawn from {0, 256, 512} (ties
  // everywhere), all live before the first dispatch on a few cores.
  for (std::uint64_t seed = 0; seed < 27; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    const bool deep = seed >= 25;
    const std::size_t n =
        deep ? 200 + static_cast<std::size_t>(rng.below(60))
             : 6 + static_cast<std::size_t>(rng.below(20));
    const ExtendedProcessGraph graph = randomDag(rng, n, deep ? 0 : 15);
    const SharingMatrix sharing =
        deep ? randomSharing(rng, n, 3, 256) : randomSharing(rng, n);
    const std::size_t coreCount = 2 + static_cast<std::size_t>(rng.below(3));
    const std::int64_t threshold =
        deep ? OnlineLocalityOptions{}.rebuildThreshold
             : static_cast<std::int64_t>(rng.below(3)) * 5;  // 0, 5 or 10

    OnlineLocalityOptions options;
    options.rebuildThreshold = threshold;
    options.balancer.enabled = (seed % 3 == 0);
    options.indexedPlanner = true;
    OnlineLocalityScheduler indexed(options);
    options.indexedPlanner = false;
    OnlineLocalityScheduler legacy(options);
    const SchedContext context{&graph, &sharing, coreCount};
    indexed.reset(context);
    legacy.reset(context);
    expectPlansEqual(indexed.plan(), legacy.plan());

    std::vector<bool> completed(n, false);
    std::vector<bool> readySet(n, false);
    std::vector<bool> dispatched(n, false);
    std::vector<bool> gone(n, false);
    const auto depsDone = [&](ProcessId p) {
      for (const ProcessId pred : graph.predecessors(p)) {
        if (!completed[pred]) return false;
      }
      return true;
    };
    const auto both = [&](auto&& call) {
      call(indexed);
      call(legacy);
      expectPlansEqual(indexed.plan(), legacy.plan());
    };

    // Arrivals in random order; readiness follows the DAG.
    std::vector<ProcessId> order;
    for (ProcessId p = 0; p < n; ++p) order.push_back(p);
    rng.shuffle(order);
    for (const ProcessId p : order) {
      both([&](auto& policy) { policy.onArrival(p); });
      if (depsDone(p)) {
        both([&](auto& policy) { policy.onReady(p); });
        readySet[p] = true;
      }
    }

    // A leaf process may retire before ever running (lifetime expiry in
    // the open-workload engine): exit it while it is still planned.
    for (ProcessId p = 0; p < n && p < 3; ++p) {
      if (graph.successors(p).empty() && !graph.predecessors(p).empty()) {
        both([&](auto& policy) { policy.onExit(p); });
        gone[p] = true;
        readySet[p] = false;
        completed[p] = true;  // nothing waits on a leaf
        break;
      }
    }

    std::vector<std::optional<ProcessId>> previous(coreCount);
    std::size_t done = static_cast<std::size_t>(
        std::count(completed.begin(), completed.end(), true));
    while (done < n) {
      std::vector<ProcessId> ran;
      for (std::size_t core = 0; core < coreCount; ++core) {
        const auto a = indexed.pickNext(core, previous[core]);
        const auto b = legacy.pickNext(core, previous[core]);
        ASSERT_EQ(a, b) << "seed " << seed << " core " << core;
        expectPlansEqual(indexed.plan(), legacy.plan());
        if (!a) continue;
        ASSERT_TRUE(readySet[*a]) << "seed " << seed;
        readySet[*a] = false;
        dispatched[*a] = true;
        previous[core] = *a;
        ran.push_back(*a);
      }
      ASSERT_FALSE(ran.empty()) << "seed " << seed << ": stranded at "
                                << done << "/" << n;
      for (const ProcessId p : ran) {
        both([&](auto& policy) {
          policy.onComplete(p);
          policy.onExit(p);
        });
        completed[p] = true;
        ++done;
        for (const ProcessId succ : graph.successors(p)) {
          if (!completed[succ] && !gone[succ] && !readySet[succ] &&
              !dispatched[succ] && depsDone(succ)) {
            both([&](auto& policy) { policy.onReady(succ); });
            readySet[succ] = true;
          }
        }
      }
    }

    const PolicyStats is = indexed.stats();
    const PolicyStats ls = legacy.stats();
    EXPECT_EQ(is.decisions, ls.decisions) << "seed " << seed;
    EXPECT_EQ(is.rebuilds, ls.rebuilds) << "seed " << seed;
    EXPECT_EQ(is.patches, ls.patches) << "seed " << seed;
    EXPECT_EQ(is.steals, ls.steals) << "seed " << seed;
    EXPECT_EQ(is.offloads, ls.offloads) << "seed " << seed;
  }
}

TEST(OnlineLocality, IndexedMatchesLegacyFullOpenSimulation) {
  // End-to-end through the simulation engine: staggered cohort arrivals
  // plus lifetime retirement (exits of processes that never ran). The
  // two implementations must produce the same simulation, cycle for
  // cycle.
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 2);
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = 60'000;
  config.mpsoc.arrivals->processLifetimeCycles = 400'000;
  config.sched.onlineLocality.rebuildThreshold = 4;

  config.sched.onlineLocality.indexedPlanner = true;
  const auto indexed =
      runExperiment(mix, SchedulerKind::OnlineLocality, config);
  config.sched.onlineLocality.indexedPlanner = false;
  const auto legacy =
      runExperiment(mix, SchedulerKind::OnlineLocality, config);

  EXPECT_EQ(indexed.sim.makespanCycles, legacy.sim.makespanCycles);
  EXPECT_EQ(indexed.sim.retiredProcesses, legacy.sim.retiredProcesses);
  ASSERT_EQ(indexed.sim.processes.size(), legacy.sim.processes.size());
  for (std::size_t p = 0; p < indexed.sim.processes.size(); ++p) {
    EXPECT_EQ(indexed.sim.processes[p].firstStartCycle,
              legacy.sim.processes[p].firstStartCycle)
        << "process " << p;
    EXPECT_EQ(indexed.sim.processes[p].completionCycle,
              legacy.sim.processes[p].completionCycle)
        << "process " << p;
    EXPECT_EQ(indexed.sim.processes[p].retired,
              legacy.sim.processes[p].retired)
        << "process " << p;
  }
  // PolicyStats ride SimResult out of the engine; the decision counts
  // of two decision-identical runs match.
  EXPECT_EQ(indexed.sim.policy.decisions, legacy.sim.policy.decisions);
  EXPECT_GT(indexed.sim.policy.decisions, 0u);
  EXPECT_EQ(indexed.sim.policy.rebuilds, legacy.sim.policy.rebuilds);
}

TEST(OnlineLocality, StatsCountersAccount) {
  PatchRig rig;
  OnlineLocalityOptions options;
  options.rebuildThreshold = 100;  // patch-only
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&rig.graph, &rig.sharing, 2});
  for (const ProcessId p : {0u, 1u, 2u, 3u}) {
    policy.onArrival(p);
    policy.onReady(p);
  }
  // The uniform-tie arrivals all patched onto core 0's plan: core 0
  // dispatches plan-guided, core 1's every pick is a steal.
  std::vector<std::optional<ProcessId>> previous(2);
  for (int i = 0; i < 4; ++i) {
    const std::size_t core = static_cast<std::size_t>(i) % 2;
    previous[core] = policy.pickNext(core, previous[core]);
    ASSERT_TRUE(previous[core].has_value());
  }
  const PolicyStats stats = policy.stats();
  EXPECT_EQ(stats.decisions, 4u);
  EXPECT_EQ(stats.patches, 4u);  // one per arrival, none rebuilt
  EXPECT_EQ(stats.rebuilds, 0u);
  EXPECT_EQ(stats.offloads, 0u);  // balancer disabled
  EXPECT_EQ(stats.steals, 2u);   // both of core 1's picks
}

}  // namespace
}  // namespace laps
