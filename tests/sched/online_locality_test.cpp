/// \file online_locality_test.cpp
/// \brief OnlineLocalityScheduler: closed-workload equivalence with the
/// static LS plan, incremental patch/rebuild behavior under arrival and
/// exit events, frozen golden decision digests on random open workloads
/// and a full open-workload simulation, and parameter validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "../region/sharing_builder.h"
#include "core/laps.h"
#include "golden_digest.h"

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
  SharingMatrix sharing;

  PatchRig() {
    std::vector<Footprint> footprints(4);
    for (int i = 0; i < 4; ++i) {
      ProcessSpec p;
      p.name = "P" + std::to_string(i);
      p.nests.push_back(LoopNest{IterationSpace::box({{0, 10}}), {}, 1});
      graph.addProcess(std::move(p));
      const std::int64_t lo = i < 2 ? 0 : 100;
      footprints[static_cast<std::size_t>(i)].add(
          0, IntervalSet::range(lo, lo + 100));
    }
    sharing = SharingMatrix::compute(footprints);
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
  EXPECT_EQ(policy.stats().patches, 4u);
  EXPECT_EQ(policy.stats().rebuilds, 0u);  // below threshold: only patches
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
  EXPECT_EQ(policy.stats().rebuilds, 4u);

  // Exits rebuild too.
  policy.onExit(0);
  live.erase(live.begin());
  const LocalityPlan reference =
      buildLocalityPlan(rig.graph, rig.sharing, 2, {}, live);
  expectPlansEqual(policy.plan(), reference);
  EXPECT_EQ(policy.stats().rebuilds, 5u);
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
  EXPECT_EQ(policy.stats().rebuilds, 0u);
  policy.onArrival(2);  // patch 3 > threshold -> rebuild
  EXPECT_EQ(policy.stats().rebuilds, 1u);
  policy.onArrival(3);  // budget restarted: patch again
  EXPECT_EQ(policy.stats().rebuilds, 1u);
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
  test::SharingBuilder builder(n);
  for (std::size_t p = 0; p < n; ++p) {
    builder.pad(p, static_cast<std::int64_t>(rng.below(2 * levels)) * unit);
    for (std::size_t q = 0; q < p; ++q) {
      builder.pair(p, q, static_cast<std::int64_t>(rng.below(levels)) * unit);
    }
  }
  return builder.build();
}

/// Drives one OLS through seed \p seed's random open workload: arrivals
/// in random order with readiness following the DAG, an exit of a
/// planned-but-never-dispatched leaf, then dispatch rounds until every
/// process completed. Seeds 25 and 26 are a deep backlog at the default
/// rebuild threshold: hundreds of dependence-free processes, sharing
/// drawn from {0, 256, 512} (ties everywhere), all live before the
/// first dispatch on a few cores. The seed draws the rebuild threshold;
/// \p options supplies everything else.
/// Returns the FNV-1a digest of every plan state, every pick and the
/// final PolicyStats.
std::uint64_t randomOpenWorkloadDigest(std::uint64_t seed,
                                       OnlineLocalityOptions options) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const bool deep = seed >= 25;
  const std::size_t n =
      deep ? 200 + static_cast<std::size_t>(rng.below(60))
           : 6 + static_cast<std::size_t>(rng.below(20));
  const ExtendedProcessGraph graph = randomDag(rng, n, deep ? 0 : 15);
  const SharingMatrix sharing =
      deep ? randomSharing(rng, n, 3, 256) : randomSharing(rng, n);
  const std::size_t coreCount = 2 + static_cast<std::size_t>(rng.below(3));
  options.rebuildThreshold =
      deep ? OnlineLocalityOptions{}.rebuildThreshold
           : static_cast<std::int64_t>(rng.below(3)) * 5;  // 0, 5 or 10

  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&graph, &sharing, coreCount});
  Fnv1a digest;
  digest.addPlan(policy.plan());

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
  const auto event = [&](auto&& call) {
    call();
    digest.addPlan(policy.plan());
  };

  // Arrivals in random order; readiness follows the DAG.
  std::vector<ProcessId> order;
  for (ProcessId p = 0; p < n; ++p) order.push_back(p);
  rng.shuffle(order);
  for (const ProcessId p : order) {
    event([&] { policy.onArrival(p); });
    if (depsDone(p)) {
      event([&] { policy.onReady(p); });
      readySet[p] = true;
    }
  }

  // A leaf process may retire before ever running (lifetime expiry in
  // the open-workload engine): exit it while it is still planned.
  for (ProcessId p = 0; p < n && p < 3; ++p) {
    if (graph.successors(p).empty() && !graph.predecessors(p).empty()) {
      event([&] { policy.onExit(p); });
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
      const auto pick = policy.pickNext(core, previous[core]);
      digest.addPick(pick).addPlan(policy.plan());
      if (!pick) continue;
      EXPECT_TRUE(readySet[*pick]) << "seed " << seed;
      readySet[*pick] = false;
      dispatched[*pick] = true;
      previous[core] = *pick;
      ran.push_back(*pick);
    }
    if (ran.empty()) {
      ADD_FAILURE() << "seed " << seed << ": stranded at " << done << "/"
                    << n;
      break;
    }
    for (const ProcessId p : ran) {
      event([&] {
        policy.onComplete(p);
        policy.onExit(p);
      });
      completed[p] = true;
      ++done;
      for (const ProcessId succ : graph.successors(p)) {
        if (!completed[succ] && !gone[succ] && !readySet[succ] &&
            !dispatched[succ] && depsDone(succ)) {
          event([&] { policy.onReady(succ); });
          readySet[succ] = true;
        }
      }
    }
  }
  return digest.addStats(policy.stats()).value;
}

TEST(OnlineLocality, GoldenDigestsOnRandomOpenWorkloads) {
  // Frozen decision digests, one per seed, recorded while a second,
  // pre-index OLS implementation still ran in lockstep and agreed on
  // every plan state and pick — the constants pin both. Covers every
  // rebuild threshold and exits of planned-but-never-dispatched
  // processes.
  static constexpr std::uint64_t kGolden[27] = {
      0xa02fce6345facbdaULL, 0x777813a5efeb57c1ULL, 0x39ba698e7cddec16ULL,
      0xe50bc0a69717c37cULL, 0x64d2fa529084237fULL, 0x62eb126cfd4320fdULL,
      0xc7da79e9c20bb5b8ULL, 0x0cbc72c530f76f38ULL, 0x82bc7facc708cd6fULL,
      0x4af6c5e561076ebfULL, 0x190f69337408e95aULL, 0xe4f94d98549e0530ULL,
      0x1dc2e531c0a4170eULL, 0xf6b9b12a37b63ef6ULL, 0x62e5bd6b208537f6ULL,
      0xc12bbaee4666f0aeULL, 0xbd4446c7a6b63689ULL, 0x3bceea0a6c8a0172ULL,
      0x45c42973e4d07075ULL, 0x6d175c00c11e7f05ULL, 0x5a581b8479b13926ULL,
      0xa2e26df7aadff249ULL, 0x73ac37d2883dd7b1ULL, 0x9506fa5bdfce19d3ULL,
      0xc76efcfd1e782227ULL, 0x4bd1d2aaa42e3443ULL, 0x6170b4e846063d84ULL,
  };
  for (std::uint64_t seed = 0; seed < 27; ++seed) {
    EXPECT_EQ(randomOpenWorkloadDigest(seed, {}), kGolden[seed])
        << "seed " << seed;
  }
}

/// FNV-1a digest of an open-workload simulation: makespan, retirements,
/// each process's first start, completion and retired flag, and the
/// PolicyStats the engine hands out.
std::uint64_t simulationDigest(const SimResult& sim) {
  Fnv1a digest;
  digest.add(static_cast<std::uint64_t>(sim.makespanCycles))
      .add(sim.retiredProcesses);
  for (const auto& p : sim.processes) {
    digest.add(static_cast<std::uint64_t>(p.firstStartCycle))
        .add(static_cast<std::uint64_t>(p.completionCycle))
        .add(p.retired ? 1 : 0);
  }
  return digest.addStats(sim.policy).value;
}

TEST(OnlineLocality, GoldenDigestFullOpenSimulation) {
  // End to end through the simulation engine: staggered cohort arrivals
  // plus lifetime retirement (exits of processes that never ran). The
  // frozen digest was recorded while the pre-index OLS produced the
  // same simulation cycle for cycle.
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 2);
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = 60'000;
  config.mpsoc.arrivals->processLifetimeCycles = 400'000;
  config.sched.onlineLocality.rebuildThreshold = 4;
  const auto r = runExperiment(mix, SchedulerKind::OnlineLocality, config);
  EXPECT_GT(r.sim.policy.decisions, 0u);
  EXPECT_EQ(simulationDigest(r.sim), 0x3ac707e6efb017a7ULL);
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
  EXPECT_EQ(stats.offloads, 0u);  // no core went down
  EXPECT_EQ(stats.steals, 2u);   // both of core 1's picks
}

/// The plan right after a rebuild: buildLocalityPlan over \p pending
/// (ascending), except that the work it put on the down core \p down
/// sits at the up cores' tails instead.
void expectFreshPlan(const OnlineLocalityScheduler& policy,
                     const ExtendedProcessGraph& graph,
                     const SharingMatrix& sharing, std::size_t coreCount,
                     const std::vector<ProcessId>& pending,
                     std::optional<std::size_t> down, std::uint64_t tag) {
  const LocalityPlan plan = policy.plan();
  ASSERT_EQ(plan.perCore.size(), coreCount) << "case " << tag;
  if (pending.empty()) {
    EXPECT_EQ(plan.processCount(), 0u) << "case " << tag;
    return;
  }
  const LocalityPlan fresh =
      buildLocalityPlan(graph, sharing, coreCount, {}, pending);
  if (!down) {
    for (std::size_t c = 0; c < coreCount; ++c) {
      ASSERT_EQ(plan.perCore[c], fresh.perCore[c])
          << "case " << tag << " core " << c;
    }
    return;
  }
  ASSERT_TRUE(plan.perCore[*down].empty()) << "case " << tag;
  std::vector<ProcessId> moved;
  for (std::size_t c = 0; c < coreCount; ++c) {
    if (c == *down) continue;
    const auto& got = plan.perCore[c];
    const auto& want = fresh.perCore[c];
    ASSERT_GE(got.size(), want.size()) << "case " << tag << " core " << c;
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "case " << tag << " core " << c;
    moved.insert(moved.end(), got.begin() + static_cast<std::ptrdiff_t>(want.size()),
                 got.end());
  }
  std::vector<ProcessId> evacuated = fresh.perCore[*down];
  std::sort(moved.begin(), moved.end());
  std::sort(evacuated.begin(), evacuated.end());
  EXPECT_EQ(moved, evacuated) << "case " << tag;
}

TEST(OnlineLocality, ThresholdZeroChurnRebuildsOverThePendingSet) {
  // Rebuild-every-event through dispatch, preemption, a crash re-entry
  // and a core outage: after every arrival and exit the plan is a fresh
  // buildLocalityPlan over exactly the live, undispatched processes
  // (the list OLS maintains; audited against a scan under LAPS_AUDIT),
  // with a down core's share evacuated to the up cores.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 91);
    constexpr std::size_t kN = 24;
    constexpr std::size_t kCores = 3;
    const ExtendedProcessGraph graph = randomDag(rng, kN, 0);
    const SharingMatrix sharing = randomSharing(rng, kN, 4);
    OnlineLocalityOptions options;
    options.rebuildThreshold = 0;
    OnlineLocalityScheduler policy(options);
    policy.reset(SchedContext{&graph, &sharing, kCores});

    std::vector<bool> pending(kN, false);
    std::vector<ProcessId> running;
    std::optional<std::size_t> down;
    std::uint64_t step = seed * 1000;
    const auto check = [&] {
      std::vector<ProcessId> ids;
      for (ProcessId p = 0; p < kN; ++p) {
        if (pending[p]) ids.push_back(p);
      }
      expectFreshPlan(policy, graph, sharing, kCores, ids, down, ++step);
    };
    const auto arrive = [&](ProcessId p) {
      policy.onArrival(p);
      pending[p] = true;
      check();
      policy.onReady(p);
    };
    const auto dispatch = [&](std::size_t core) {
      const std::optional<ProcessId> pick = policy.pickNext(core, std::nullopt);
      if (!pick) return;
      ASSERT_TRUE(pending[*pick]);
      pending[*pick] = false;
      running.push_back(*pick);
    };
    const auto finish = [&](ProcessId p) {
      policy.onComplete(p);
      policy.onExit(p);
      check();
    };

    ProcessId next = 0;
    for (; next < 10; ++next) arrive(next);
    for (std::size_t c = 0; c < kCores; ++c) dispatch(c);
    ASSERT_EQ(running.size(), kCores);
    finish(running[0]);

    // Preemption: the suspended process is pending again (patched in),
    // and the next event's rebuild plans it.
    policy.onPreempt(running[1]);
    pending[running[1]] = true;
    arrive(next++);

    // Crash re-entry: exit of a running process, then its re-arrival.
    const ProcessId crashed = running[2];
    policy.onExit(crashed);
    check();
    arrive(crashed);

    // Core outage: rebuilds evacuate the down core; an exit of a
    // planned, never-dispatched process rebuilds too.
    down = 1;
    policy.onCoreDown(1);
    EXPECT_TRUE(policy.plan().perCore[1].empty());
    EXPECT_FALSE(policy.pickNext(1, std::nullopt).has_value());
    arrive(next++);
    ProcessId retired = kN;
    for (ProcessId p = 0; p < kN; ++p) {
      if (pending[p] && rng.below(2) == 0) retired = p;
    }
    ASSERT_LT(retired, kN);
    pending[retired] = false;
    finish(retired);
    running.clear();
    dispatch(0);
    dispatch(2);
    arrive(next++);
    down.reset();
    policy.onCoreUp(1);
    arrive(next++);

    // Drain: dispatch and finish everything, arrivals in between.
    while (true) {
      running.clear();
      for (std::size_t c = 0; c < kCores; ++c) dispatch(c);
      if (running.empty()) break;
      for (const ProcessId p : running) finish(p);
      if (next < kN) arrive(next++);
    }
    EXPECT_EQ(std::count(pending.begin(), pending.end(), true), 0);
  }
}

/// Independent processes under chosen sharing cells, driven through one
/// OLS in pure-patch mode: the harness for where a downed core's
/// orphans land.
struct OrphanRig {
  ExtendedProcessGraph graph;
  SharingMatrix sharing;
  std::optional<NocTopology> mesh;
  OnlineLocalityScheduler policy;

  OrphanRig(const test::SharingBuilder& cells, std::size_t n,
            std::size_t cores, std::int64_t hopWeight = 0)
      : sharing(cells.build()),
        policy(OnlineLocalityOptions{.rebuildThreshold = 100,
                                     .hopWeight = hopWeight}) {
    for (std::size_t i = 0; i < n; ++i) {
      ProcessSpec p;
      p.name = "R" + std::to_string(i);
      graph.addProcess(std::move(p));
    }
    if (hopWeight > 0) {
      mesh.emplace(NocTopologyKind::Mesh, static_cast<std::int64_t>(cores),
                   2);
    }
    SchedContext context{&graph, &sharing, cores};
    if (mesh) context.topology = &*mesh;
    policy.reset(context);
  }

  /// Arrives \p p and runs it on \p core: p becomes the core's dispatch
  /// anchor (and, distance-aware, p's home). Only p is ready, so the
  /// pick cannot be anything else.
  void runOn(ProcessId p, std::size_t core) {
    policy.onArrival(p);
    policy.onReady(p);
    ASSERT_EQ(policy.pickNext(core, std::nullopt), std::optional{p});
  }

  [[nodiscard]] std::optional<std::size_t> coreOf(ProcessId p) const {
    const LocalityPlan plan = policy.plan();
    for (std::size_t c = 0; c < plan.perCore.size(); ++c) {
      const auto& order = plan.perCore[c];
      if (std::find(order.begin(), order.end(), p) != order.end()) return c;
    }
    return std::nullopt;
  }
};

TEST(OnlineLocality, PreemptedProcessResumesOnItsOwnAnchorCore) {
  // A preempted process is still the anchor of the core it ran on. With
  // that core's queue dry, the resume patch scores the core with
  // sharing.at(o, o), o's whole footprint, which no pair cell exceeds:
  // on a 2x2 mesh with hopWeight 64, o preempted on core 2 stays there
  // at key 2 x 1024 against 960 for core 3, the hop-nearest core whose
  // anchor shares with o (core 1 shares as much, two hops away).
  enum : ProcessId { a1, a3, o, kN };
  OrphanRig rig(test::SharingBuilder(kN).pair(a1, o, 1).pair(a3, o, 1), kN,
                4, 64);
  LocalityScore score;
  score.configure(&rig.sharing, &*rig.mesh, 64);
  EXPECT_EQ(score.key(rig.sharing.at(o, o), 2, 2),
            2 * LocalityScore::kSharingScale);
  EXPECT_EQ(score.key(rig.sharing.at(a3, o), 3, 2), 960);
  EXPECT_EQ(score.key(rig.sharing.at(a1, o), 1, 2), 896);
  rig.runOn(a1, 1);
  rig.runOn(a3, 3);
  rig.runOn(o, 2);
  rig.policy.onPreempt(o);
  EXPECT_EQ(rig.coreOf(o), 2u);
}

TEST(OnlineLocality, CoreDownReHomesOrphansByTheArrivalRule) {
  {
    // The max-sharing tail wins, and a core's tail — not its anchor —
    // is what the orphan is scored against.
    enum : ProcessId { a0, a1, a2, t1, t2, o, kN };
    OrphanRig rig(test::SharingBuilder(kN)
                      .pair(a1, t1, 4)
                      .pair(a2, t2, 4)
                      .pair(a0, o, 10)
                      .pair(a1, o, 9)
                      .pair(t1, o, 3)
                      .pair(t2, o, 5),
                  kN, 3);
    rig.runOn(a0, 0);
    rig.runOn(a1, 1);
    rig.runOn(a2, 2);
    rig.policy.onArrival(t1);
    rig.policy.onArrival(t2);
    rig.policy.onArrival(o);
    ASSERT_EQ(rig.coreOf(t1), 1u);
    ASSERT_EQ(rig.coreOf(t2), 2u);
    ASSERT_EQ(rig.coreOf(o), 0u);
    rig.policy.onCoreDown(0);
    EXPECT_EQ(rig.policy.plan().perCore[2], (std::vector<ProcessId>{t2, o}));
    EXPECT_EQ(rig.policy.stats().offloads, 1u);
  }
  {
    // An empty queue scores its core's last dispatch: the anchored
    // core 2 beats the empty, anchorless core 1.
    enum : ProcessId { a0, a2, o, kN };
    OrphanRig rig(test::SharingBuilder(kN).pair(a0, o, 10).pair(a2, o, 2),
                  kN, 3);
    rig.runOn(a0, 0);
    rig.runOn(a2, 2);
    rig.policy.onArrival(o);
    ASSERT_EQ(rig.coreOf(o), 0u);
    rig.policy.onCoreDown(0);
    EXPECT_EQ(rig.coreOf(o), 2u);
  }
  {
    // Ties go to the lowest *up* core: with core 1 down, cores 2 and 3
    // tie at 0 and core 2 takes the orphan.
    enum : ProcessId { a0, o, kN };
    OrphanRig rig(test::SharingBuilder(kN).pair(a0, o, 10), kN, 4);
    rig.runOn(a0, 0);
    rig.policy.onCoreDown(1);
    rig.policy.onArrival(o);
    ASSERT_EQ(rig.coreOf(o), 0u);
    rig.policy.onCoreDown(0);
    EXPECT_EQ(rig.coreOf(o), 2u);
  }
  {
    // Chaining: the first orphan becomes the tail the second one is
    // scored against. Against core 1's anchor alone, o2 would pick
    // core 2 (7 > 6); behind o1 it scores 8 and follows o1.
    enum : ProcessId { a0, a1, a2, o1, o2, kN };
    OrphanRig rig(test::SharingBuilder(kN)
                      .pair(a0, o1, 10)
                      .pair(a1, o1, 5)
                      .pair(o1, o2, 8)
                      .pair(a1, o2, 6)
                      .pair(a2, o2, 7),
                  kN, 3);
    rig.runOn(a0, 0);
    rig.runOn(a1, 1);
    rig.runOn(a2, 2);
    rig.policy.onArrival(o1);
    rig.policy.onArrival(o2);
    ASSERT_EQ(rig.policy.plan().perCore[0], (std::vector<ProcessId>{o1, o2}));
    rig.policy.onCoreDown(0);
    EXPECT_EQ(rig.policy.plan().perCore[1], (std::vector<ProcessId>{o1, o2}));
    EXPECT_EQ(rig.policy.stats().offloads, 2u);
  }
  {
    // Every core down: the orphans park anyway (every core is
    // eligible again, none anchored: the lowest index), in queue order.
    enum : ProcessId { t, o, kN };
    OrphanRig rig(test::SharingBuilder(kN).pair(t, o, 3), kN, 2);
    rig.policy.onArrival(t);
    rig.policy.onCoreDown(1);
    rig.policy.onArrival(o);
    rig.policy.onCoreDown(0);
    EXPECT_EQ(rig.policy.plan().perCore[0], (std::vector<ProcessId>{t, o}));
    EXPECT_TRUE(rig.policy.plan().perCore[1].empty());
  }
  {
    // 2x2 mesh, hop-weighted: o ran on core 2 (its home) and was
    // replanned there. When core 2 goes down, cores 1 and 3 share 1
    // with o; the home would pull o to core 3 (one hop, not two), but
    // the downed core's caches are gone and the tie falls to core 1.
    enum : ProcessId { a1, a3, o, kN };
    OrphanRig rig(test::SharingBuilder(kN).pair(a1, o, 1).pair(a3, o, 1),
                  kN, 4, 64);
    rig.runOn(a1, 1);
    rig.runOn(a3, 3);
    rig.runOn(o, 2);
    rig.policy.onPreempt(o);
    ASSERT_EQ(rig.coreOf(o), 2u);
    rig.policy.onCoreDown(2);
    EXPECT_EQ(rig.coreOf(o), 1u);
  }
}

}  // namespace
}  // namespace laps
