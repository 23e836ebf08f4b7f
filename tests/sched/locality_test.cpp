#include "sched/locality.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "../region/sharing_builder.h"
#include "util/error.h"

namespace laps {
namespace {

/// Sharing matrix of the paper's running example (Prog1, 8 processes):
/// process k touches the sliding window [1000k, 1000k + 3000) of one
/// array, so M[k][p] = 2000 at distance 1, 1000 at distance 2, 0 beyond.
SharingMatrix prog1Sharing() {
  std::vector<Footprint> fps(8);
  for (std::int64_t k = 0; k < 8; ++k) {
    fps[static_cast<std::size_t>(k)].add(
        0, IntervalSet::range(1000 * k, 1000 * k + 3000));
  }
  return SharingMatrix::compute(fps);
}

ExtendedProcessGraph independentProcesses(std::size_t n) {
  ExtendedProcessGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "P" + std::to_string(i);
    g.addProcess(std::move(p));
  }
  return g;
}

std::int64_t consecutiveSharing(const LocalityPlan& plan,
                                const SharingMatrix& m) {
  std::int64_t total = 0;
  for (const auto& [a, b] : plan.successivePairs()) total += m.at(a, b);
  return total;
}

void expectValidPlacement(const LocalityPlan& plan, std::size_t n) {
  std::set<ProcessId> seen;
  for (const auto& core : plan.perCore) {
    for (const ProcessId p : core) {
      EXPECT_TRUE(seen.insert(p).second) << "process placed twice: " << p;
      EXPECT_LT(p, n);
    }
  }
  EXPECT_EQ(seen.size(), n) << "some process was never placed";
}

TEST(BuildLocalityPlan, PaperExampleFourCores) {
  const auto g = independentProcesses(8);
  const auto m = prog1Sharing();
  const LocalityPlan plan = buildLocalityPlan(g, m, 4);
  ASSERT_EQ(plan.perCore.size(), 4u);
  expectValidPlacement(plan, 8);
  // Every core runs exactly two processes (8 processes, 4 cores).
  for (const auto& core : plan.perCore) EXPECT_EQ(core.size(), 2u);
  // The greedy achieves neighbor pairing on at least 3 of 4 cores
  // (the paper notes the heuristic is not always optimal).
  int neighborPairs = 0;
  for (const auto& [a, b] : plan.successivePairs()) {
    if (m.at(a, b) == 2000) ++neighborPairs;
  }
  EXPECT_GE(neighborPairs, 3);
  EXPECT_GE(consecutiveSharing(plan, m), 6000);
}

TEST(BuildLocalityPlan, DeterministicGoldenTrace) {
  // Exact expected outcome of the Fig. 3 greedy on the running example
  // (documents the algorithm's tie-breaking behaviour).
  const auto g = independentProcesses(8);
  const auto m = prog1Sharing();
  const LocalityPlan plan = buildLocalityPlan(g, m, 4);
  EXPECT_EQ(plan.perCore[0], (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(plan.perCore[1], (std::vector<ProcessId>{3, 2}));
  EXPECT_EQ(plan.perCore[2], (std::vector<ProcessId>{6, 5}));
  EXPECT_EQ(plan.perCore[3], (std::vector<ProcessId>{7, 4}));
}

TEST(BuildLocalityPlan, InitialRoundMinimizesConcurrentSharing) {
  const auto g = independentProcesses(8);
  const auto m = prog1Sharing();
  const LocalityPlan plan = buildLocalityPlan(g, m, 4);
  // First processes across cores must share pairwise less than a naive
  // prefix {0,1,2,3} would (which has 3 neighbor pairs = 6000 + ...).
  std::vector<ProcessId> firsts;
  for (const auto& core : plan.perCore) {
    ASSERT_FALSE(core.empty());
    firsts.push_back(core.front());
  }
  std::int64_t mutualSharing = 0;
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    for (std::size_t j = i + 1; j < firsts.size(); ++j) {
      mutualSharing += m.at(firsts[i], firsts[j]);
    }
  }
  std::int64_t naive = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      naive += m.at(i, j);
    }
  }
  EXPECT_LT(mutualSharing, naive);
}

TEST(BuildLocalityPlan, RespectsDependences) {
  // Chain 0 -> 1 -> 2 plus independent 3, 4 on 2 cores.
  ExtendedProcessGraph g = independentProcesses(5);
  g.addDependence(0, 1);
  g.addDependence(1, 2);
  const SharingMatrix m =
      test::SharingBuilder(5).pair(0, 1, 100).pair(1, 2, 100).build();
  const LocalityPlan plan = buildLocalityPlan(g, m, 2);
  expectValidPlacement(plan, 5);
  // Placement index of a process must come after its predecessors
  // in the global placement (per-core position ordering is enough here:
  // reconstruct global order by interleaving rounds).
  std::vector<int> position(5, -1);
  for (const auto& core : plan.perCore) {
    for (std::size_t i = 0; i < core.size(); ++i) {
      position[core[i]] = static_cast<int>(i);
    }
  }
  EXPECT_LT(position[0], position[1] + 1);  // 0 placed no later than 1's slot
  EXPECT_LE(position[1], position[2]);
}

TEST(BuildLocalityPlan, MoreCoresThanProcesses) {
  const auto g = independentProcesses(3);
  const SharingMatrix m = test::SharingBuilder(3).build();
  const LocalityPlan plan = buildLocalityPlan(g, m, 8);
  expectValidPlacement(plan, 3);
  EXPECT_EQ(plan.processCount(), 3u);
}

TEST(BuildLocalityPlan, SingleCoreGetsEverything) {
  const auto g = independentProcesses(6);
  const auto m = test::SharingBuilder(6).build();
  const LocalityPlan plan = buildLocalityPlan(g, m, 1);
  ASSERT_EQ(plan.perCore.size(), 1u);
  EXPECT_EQ(plan.perCore[0].size(), 6u);
}

TEST(BuildLocalityPlan, EmptyGraph) {
  const ExtendedProcessGraph g;
  const SharingMatrix m = test::SharingBuilder(0).build();
  const LocalityPlan plan = buildLocalityPlan(g, m, 4);
  EXPECT_EQ(plan.processCount(), 0u);
}

TEST(BuildLocalityPlan, Validation) {
  const auto g = independentProcesses(3);
  const SharingMatrix two = test::SharingBuilder(2).build();
  const SharingMatrix three = test::SharingBuilder(3).build();
  EXPECT_THROW((void)buildLocalityPlan(g, two, 2), Error);
  EXPECT_THROW((void)buildLocalityPlan(g, three, 0), Error);
  ExtendedProcessGraph cyclic = independentProcesses(2);
  cyclic.addDependence(0, 1);
  cyclic.addDependence(1, 0);
  EXPECT_THROW((void)buildLocalityPlan(cyclic, two, 2), Error);
}

TEST(BuildLocalityPlan, AblationDisablesInitialRound) {
  const auto g = independentProcesses(8);
  const auto m = prog1Sharing();
  const LocalityPlan withRound =
      buildLocalityPlan(g, m, 4, {.initialMinSharingRound = true});
  const LocalityPlan withoutRound =
      buildLocalityPlan(g, m, 4, {.initialMinSharingRound = false});
  // Without the round, the first X roots in id order start (0,1,2,3).
  std::vector<ProcessId> firsts;
  for (const auto& core : withoutRound.perCore) firsts.push_back(core.front());
  EXPECT_EQ(firsts, (std::vector<ProcessId>{0, 1, 2, 3}));
  expectValidPlacement(withoutRound, 8);
  // The proper initial round must not start with a contiguous prefix.
  std::vector<ProcessId> properFirsts;
  for (const auto& core : withRound.perCore) {
    properFirsts.push_back(core.front());
  }
  EXPECT_NE(properFirsts, (std::vector<ProcessId>{0, 1, 2, 3}));
}

TEST(LocalityPlan, SuccessivePairs) {
  LocalityPlan plan;
  plan.perCore = {{0, 1, 2}, {3}, {}};
  const auto pairs = plan.successivePairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(ProcessId{0}, ProcessId{1}));
  EXPECT_EQ(pairs[1], std::make_pair(ProcessId{1}, ProcessId{2}));
  EXPECT_EQ(plan.processCount(), 4u);
}

TEST(LocalityScheduler, FollowsPlanAndStallsOnDependences) {
  // 0 -> 2; core plans will be built by reset().
  ExtendedProcessGraph g = independentProcesses(3);
  g.addDependence(0, 2);
  const SharingMatrix m = test::SharingBuilder(3).pair(0, 2, 50).build();
  LocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});

  // Roots: 0 and 1.
  policy.onReady(0);
  policy.onReady(1);
  const auto first = policy.pickNext(0, std::nullopt);
  ASSERT_TRUE(first.has_value());
  // Process 2 is planned but not ready: its core must stall rather than
  // run something else.
  std::size_t coreOf2 = 0;
  for (std::size_t c = 0; c < policy.plan().perCore.size(); ++c) {
    for (const auto p : policy.plan().perCore[c]) {
      if (p == 2) coreOf2 = c;
    }
  }
  // Drain that core's earlier entries.
  while (true) {
    const auto pick = policy.pickNext(coreOf2, std::nullopt);
    if (!pick) break;
    EXPECT_NE(*pick, 2u);
  }
  policy.onReady(2);
  const auto now = policy.pickNext(coreOf2, std::nullopt);
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(*now, 2u);
}

TEST(LocalityScheduler, NameAndQuantum) {
  LocalityScheduler policy;
  EXPECT_EQ(policy.name(), "LS");
  EXPECT_FALSE(policy.quantum().has_value());
}

}  // namespace
}  // namespace laps
