/// \file load_balancer_test.cpp
/// \brief Locality-aware load shedding (load_balancer.h): move planning
/// is pure and deterministic, honors the overload trigger and the
/// per-event cap, targets the best-sharing underloaded core — and wired
/// into OnlineLocalityScheduler it sheds arrival skew without ever
/// dispatching a non-ready process, bit-identically at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/laps.h"
#include "../region/sharing_builder.h"
#include "golden_digest.h"

namespace laps {
namespace {

TEST(LoadBalancerOptions, Validates) {
  LoadBalancerOptions options;
  EXPECT_NO_THROW(options.validate());  // defaults are valid
  options.overloadPercent = 99;
  EXPECT_THROW(options.validate(), Error);
  options.overloadPercent = 100;
  options.maxMovesPerEvent = 0;
  EXPECT_THROW(options.validate(), Error);

  // The scheduler and the factory both reject invalid balancer tunables.
  OnlineLocalityOptions ols;
  ols.balancer.enabled = true;
  ols.balancer.overloadPercent = 50;
  EXPECT_THROW(OnlineLocalityScheduler{ols}, Error);
  SchedulerParams params;
  params.onlineLocality = ols;
  EXPECT_THROW(makeScheduler(SchedulerKind::OnlineLocality, params), Error);
}

TEST(LoadBalancer, OffloadsTailToBestSharingTarget) {
  // Core 0 holds all six pending processes; cores 1 and 2 are empty
  // with anchors 6 and 7. Tail entries must migrate to whichever
  // underloaded core shares the most with them.
  const SharingMatrix sharing =
      test::SharingBuilder(8)
          .pair(6, 5, 10)
          .pair(7, 5, 50)  // process 5 belongs with core 2's anchor
          .pair(5, 4, 90)  // ...and process 4 with the freshly moved 5
          .pair(6, 3, 10)  // process 3 with core 1's anchor
          .build();

  const std::vector<std::vector<ProcessId>> queues{
      {0, 1, 2, 3, 4, 5}, {}, {}};
  const std::vector<std::optional<ProcessId>> anchors{
      std::nullopt, ProcessId{6}, ProcessId{7}};
  LoadBalancerOptions options;  // 150%, 4 moves

  const std::vector<BalanceMove> moves =
      planBalanceMoves(queues, sharing, anchors, options);
  // mean = 2: weights 6, 5, 4 trip the 150% trigger; weight 3 does not.
  ASSERT_EQ(moves.size(), 3u);
  EXPECT_EQ(moves[0].process, 5u);
  EXPECT_EQ(moves[0].to, 2u);  // sharing(7, 5) = 50 beats sharing(6, 5)
  EXPECT_EQ(moves[1].process, 4u);
  EXPECT_EQ(moves[1].to, 2u);  // chained: sharing(5, 4) = 90 wins
  EXPECT_EQ(moves[2].process, 3u);
  EXPECT_EQ(moves[2].to, 1u);  // sharing(6, 3) = 10 beats sharing(4, 3)
  for (const BalanceMove& move : moves) EXPECT_EQ(move.from, 0u);
}

TEST(LoadBalancer, NoMovesWhenBalanced) {
  const SharingMatrix sharing = test::SharingBuilder(8).build();
  const std::vector<std::optional<ProcessId>> anchors(3, std::nullopt);
  LoadBalancerOptions options;
  // Perfectly even, slightly uneven, and degenerate single-core cases.
  EXPECT_TRUE(planBalanceMoves({{0, 1}, {2, 3}, {4, 5}}, sharing, anchors,
                               options)
                  .empty());
  EXPECT_TRUE(planBalanceMoves({{0, 1, 2}, {3, 4}, {5}}, sharing, anchors,
                               options)
                  .empty());
  EXPECT_TRUE(planBalanceMoves(
                  {{0, 1, 2, 3, 4, 5}}, sharing,
                  std::vector<std::optional<ProcessId>>(1, std::nullopt),
                  options)
                  .empty());
}

TEST(LoadBalancer, PureDeterministicAndBounded) {
  // Property sweep: planBalanceMoves is a pure function (same inputs,
  // same moves), obeys maxMovesPerEvent, only ever sheds the simulated
  // tail, and every move lands at least two below its source.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
    const std::size_t cores = 2 + static_cast<std::size_t>(rng.below(6));
    const std::size_t n = 32;
    test::SharingBuilder builder(n);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = 0; q < p; ++q) {
        builder.pair(p, q, static_cast<std::int64_t>(rng.below(20)));
      }
    }
    const SharingMatrix sharing = builder.build();
    std::vector<ProcessId> ids;
    for (ProcessId p = 0; p < n; ++p) ids.push_back(p);
    rng.shuffle(ids);
    std::vector<std::vector<ProcessId>> queues(cores);
    std::vector<std::optional<ProcessId>> anchors(cores);
    std::size_t next = 0;
    for (std::size_t c = 0; c < cores; ++c) {
      // Skewed fill: core 0 hogs, later cores may stay empty.
      const std::size_t take =
          c == 0 ? 8 + rng.below(8) : rng.below(4);
      for (std::size_t i = 0; i < take && next < n; ++i) {
        queues[c].push_back(ids[next++]);
      }
      if (rng.below(2) == 0 && next < n) anchors[c] = ids[next++];
    }
    LoadBalancerOptions options;
    options.maxMovesPerEvent = 1 + rng.below(5);

    const auto moves = planBalanceMoves(queues, sharing, anchors, options);
    const auto again = planBalanceMoves(queues, sharing, anchors, options);
    ASSERT_EQ(moves.size(), again.size()) << "seed " << seed;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      EXPECT_EQ(moves[i].process, again[i].process) << "seed " << seed;
      EXPECT_EQ(moves[i].from, again[i].from) << "seed " << seed;
      EXPECT_EQ(moves[i].to, again[i].to) << "seed " << seed;
    }
    EXPECT_LE(moves.size(), options.maxMovesPerEvent);

    // Replay: each move pops its source's simulated tail onto a target
    // sitting at least two below.
    std::vector<std::vector<ProcessId>> sim = queues;
    for (const BalanceMove& move : moves) {
      ASSERT_LT(move.from, cores) << "seed " << seed;
      ASSERT_LT(move.to, cores) << "seed " << seed;
      ASSERT_FALSE(sim[move.from].empty()) << "seed " << seed;
      EXPECT_EQ(sim[move.from].back(), move.process) << "seed " << seed;
      EXPECT_LT(sim[move.to].size() + 1, sim[move.from].size())
          << "seed " << seed;
      sim[move.from].pop_back();
      sim[move.to].push_back(move.process);
    }
  }
}

/// Drives an OLS policy through the engine's event protocol: all \p n
/// processes arrive up front (skewed-burst shape), readiness follows the
/// DAG, one dispatch round per step. Asserts the policy never yields a
/// non-ready or already-dispatched process and that everything
/// completes. Returns the (core, process) dispatch sequence.
std::vector<std::pair<std::size_t, ProcessId>> driveOls(
    const ExtendedProcessGraph& graph, const SharingMatrix& sharing,
    std::size_t coreCount, const OnlineLocalityOptions& options,
    PolicyStats* statsOut = nullptr) {
  OnlineLocalityScheduler policy(options);
  policy.reset(SchedContext{&graph, &sharing, coreCount});
  const std::size_t n = graph.processCount();

  std::vector<bool> completed(n, false);
  std::vector<bool> readySet(n, false);
  std::vector<bool> dispatched(n, false);
  const auto depsDone = [&](ProcessId p) {
    for (const ProcessId pred : graph.predecessors(p)) {
      if (!completed[pred]) return false;
    }
    return true;
  };
  for (ProcessId p = 0; p < n; ++p) {
    policy.onArrival(p);
    if (depsDone(p)) {
      policy.onReady(p);
      readySet[p] = true;
    }
  }

  std::vector<std::pair<std::size_t, ProcessId>> sequence;
  std::vector<std::optional<ProcessId>> previous(coreCount);
  std::size_t completedCount = 0;
  std::vector<ProcessId> ran;
  while (completedCount < n) {
    ran.clear();
    for (std::size_t core = 0; core < coreCount; ++core) {
      const auto pick = policy.pickNext(core, previous[core]);
      if (!pick) continue;
      // Dependency-safety: only announced-ready, untaken work may run.
      EXPECT_TRUE(readySet[*pick]) << "process " << *pick;
      EXPECT_FALSE(dispatched[*pick]) << "process " << *pick;
      EXPECT_TRUE(depsDone(*pick)) << "process " << *pick;
      readySet[*pick] = false;
      dispatched[*pick] = true;
      sequence.emplace_back(core, *pick);
      previous[core] = *pick;
      ran.push_back(*pick);
    }
    EXPECT_FALSE(ran.empty()) << "policy stranded work at "
                              << completedCount << "/" << n;
    if (ran.empty()) return sequence;  // avoid spinning forever
    for (const ProcessId p : ran) {
      policy.onComplete(p);
      policy.onExit(p);
      completed[p] = true;
      ++completedCount;
      for (const ProcessId succ : graph.successors(p)) {
        if (!completed[succ] && !readySet[succ] && !dispatched[succ] &&
            depsDone(succ)) {
          policy.onReady(succ);
          readySet[succ] = true;
        }
      }
    }
  }
  if (statsOut) *statsOut = policy.stats();
  return sequence;
}

/// Layered DAG (4-wide) whose sharing makes core 0 win every arrival
/// patch: the burst piles onto one queue unless the balancer sheds it.
/// Every process touches the same 100 elements, so every pair shares
/// 100.
struct SkewRig {
  ExtendedProcessGraph graph;
  SharingMatrix sharing;

  SkewRig() {
    std::vector<Footprint> footprints(16);
    for (int i = 0; i < 16; ++i) {
      ProcessSpec p;
      p.name = "S" + std::to_string(i);
      graph.addProcess(std::move(p));
    }
    for (ProcessId p = 4; p < 16; ++p) graph.addDependence(p - 4, p);
    for (Footprint& fp : footprints) fp.add(0, IntervalSet::range(0, 100));
    sharing = SharingMatrix::compute(footprints);
  }
};

/// FNV-1a digest of a driveOls run: every (core, process) dispatch and
/// the final PolicyStats.
std::uint64_t balancedRunDigest(
    const std::vector<std::pair<std::size_t, ProcessId>>& sequence,
    const PolicyStats& stats) {
  Fnv1a digest;
  for (const auto& [core, process] : sequence) digest.add(core).add(process);
  return digest.addStats(stats).value;
}

TEST(LoadBalancer, OlsShedsSkewSafelyAndDeterministically) {
  SkewRig rig;
  OnlineLocalityOptions base;
  base.rebuildThreshold = 1000;  // pure patching preserves the skew

  // Without the balancer the uniform sharing funnels every arrival
  // patch onto core 0 and no offload is counted.
  PolicyStats offStats;
  const auto offSeq = driveOls(rig.graph, rig.sharing, 4, base, &offStats);
  EXPECT_EQ(offStats.offloads, 0u);

  OnlineLocalityOptions balanced = base;
  balanced.balancer.enabled = true;
  PolicyStats onStats;
  const auto onSeq = driveOls(rig.graph, rig.sharing, 4, balanced, &onStats);
  EXPECT_GT(onStats.offloads, 0u);
  EXPECT_EQ(onSeq.size(), 16u);  // everything dispatched exactly once
  EXPECT_EQ(offSeq.size(), 16u);

  // Determinism: the dispatch sequence is bit-identical across repeat
  // runs and across thread counts (the balancer is pure integer
  // arithmetic; nothing in the decision path touches the pool).
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    setParallelThreadCount(threads);
    const auto replay =
        driveOls(rig.graph, rig.sharing, 4, balanced, nullptr);
    EXPECT_EQ(replay, onSeq) << threads << " threads";
  }
  setParallelThreadCount(0);  // restore automatic resolution

  // Frozen digest of the balanced run (dispatch sequence and
  // PolicyStats), recorded while a second, pre-index OLS implementation
  // shed identically: the balancer sits above the plan representation.
  EXPECT_EQ(balancedRunDigest(onSeq, onStats), 0x1f6d8e60d563ebdfULL);
}

}  // namespace
}  // namespace laps
