/// \file locality_score_test.cpp
/// \brief The unified locality-score hook and its distance-aware
/// consumers: LocalityScore arithmetic (blind degeneracy, hop-weighted
/// key order), the spiral initial mapping of buildLocalityPlan under a
/// topology, and PlanIndex's hop-weighted heap keys (enableDistance / setHome).

#include "sched/locality_score.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "../region/sharing_builder.h"
#include "core/laps.h"
#include "reference_planner.h"
#include "util/audit.h"

namespace laps {
namespace {

/// n processes that share nothing.
SharingMatrix diagonalFree(std::size_t n) {
  return test::SharingBuilder(n).build();
}

// --- LocalityScore arithmetic --------------------------------------------

TEST(LocalityScore, BlindKeyIsTheSharingTermExactly) {
  // Every pre-NoC configuration: no topology, or hopWeight 0 — the key
  // must be the raw sharing term bit-for-bit, because the plan index's
  // legacy heap keys and the committed PR 8 decision checksums depend
  // on it.
  const SharingMatrix sharing = diagonalFree(4);
  const NocTopology mesh(NocTopologyKind::Mesh, 16, 4);
  LocalityScore blindNoTopology;
  blindNoTopology.configure(&sharing);
  LocalityScore blindZeroWeight;
  blindZeroWeight.configure(&sharing, &mesh, 0);
  LocalityScore weightWithoutTopology;
  weightWithoutTopology.configure(&sharing, nullptr, 7);  // weight dropped
  for (LocalityScore* score :
       {&blindNoTopology, &blindZeroWeight, &weightWithoutTopology}) {
    EXPECT_FALSE(score->distanceAware());
    for (const std::int64_t term : {std::int64_t{0}, std::int64_t{1},
                                    std::int64_t{12345}, std::int64_t{-3}}) {
      EXPECT_EQ(score->key(term, 0, std::nullopt), term);
      EXPECT_EQ(score->key(term, 3, std::size_t{15}), term);
    }
  }
}

TEST(LocalityScore, AwareKeyOrdersBySharingThenDistance) {
  const SharingMatrix sharing = diagonalFree(4);
  const NocTopology mesh(NocTopologyKind::Mesh, 16, 4);
  LocalityScore score;
  score.configure(&sharing, &mesh, 3);
  ASSERT_TRUE(score.distanceAware());
  // key = sharing * 1024 - hopWeight * hops(core, home).
  EXPECT_EQ(score.key(5, 0, std::size_t{0}), 5 * 1024);      // same tile
  EXPECT_EQ(score.key(5, 0, std::size_t{15}), 5 * 1024 - 3 * 6);  // diameter
  EXPECT_EQ(score.key(5, 0, std::nullopt), 5 * 1024);  // no home: no penalty
  // Equal sharing: the nearer home wins.
  EXPECT_GT(score.key(5, 0, std::size_t{1}), score.key(5, 0, std::size_t{15}));
  // One more unit of sharing dominates any on-die distance: the maximum
  // penalty (hopWeight * diameter = 18) stays far below kSharingScale.
  EXPECT_GT(score.key(6, 0, std::size_t{15}), score.key(5, 0, std::size_t{0}));
}

TEST(LocalityScore, SharingHelperMatchesLegacyAnchorArithmetic) {
  const SharingMatrix sharing = test::SharingBuilder(3).pair(0, 2, 9).build();
  LocalityScore score;
  score.configure(&sharing);
  EXPECT_EQ(score.sharing(std::nullopt, 2), 0);  // anchorless: 0, as DLS
  EXPECT_EQ(score.sharing(ProcessId{0}, 2), 9);
}

// --- Spiral initial mapping ----------------------------------------------

ExtendedProcessGraph independentProcesses(std::size_t n) {
  ExtendedProcessGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "P" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  return graph;
}

TEST(SpiralMapping, PlannerMatchesReferenceUnderTopology) {
  // The test-side reference planner implements the spiral walk on its
  // own, so plan identity must survive the topology option.
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityOptions options;
  options.topology = &mesh;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 11);
    const std::size_t n = 4 + static_cast<std::size_t>(rng.below(20));
    const ExtendedProcessGraph graph = independentProcesses(n);
    test::SharingBuilder builder(n);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = 0; q < p; ++q) {
        builder.pair(p, q, static_cast<std::int64_t>(rng.below(8)));
      }
    }
    const SharingMatrix sharing = builder.build();
    const LocalityPlan a = buildLocalityPlan(graph, sharing, 4, options);
    const LocalityPlan b = reference::buildPlan(graph, sharing, 4, options);
    ASSERT_EQ(a.perCore.size(), b.perCore.size()) << "seed " << seed;
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
      ASSERT_EQ(a.perCore[c], b.perCore[c]) << "seed " << seed << " core " << c;
    }
  }
}

TEST(SpiralMapping, HeavySharersLandOnAdjacentTiles) {
  // 4 independent processes on a 2x2 mesh; 0 and 1 share heavily, the
  // rest share nothing. The region-growing walk must put 0 and 1 on
  // adjacent tiles (1 hop), never on the diagonal (2 hops).
  const ExtendedProcessGraph graph = independentProcesses(4);
  const SharingMatrix sharing =
      test::SharingBuilder(4).pair(0, 1, 100).build();
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityOptions options;
  options.topology = &mesh;
  const LocalityPlan plan = buildLocalityPlan(graph, sharing, 4, options);
  std::optional<std::size_t> tile0;
  std::optional<std::size_t> tile1;
  for (std::size_t c = 0; c < plan.perCore.size(); ++c) {
    ASSERT_EQ(plan.perCore[c].size(), 1u);  // initial round fills each core
    if (plan.perCore[c][0] == 0) tile0 = c;
    if (plan.perCore[c][0] == 1) tile1 = c;
  }
  ASSERT_TRUE(tile0 && tile1);
  EXPECT_EQ(mesh.hops(static_cast<std::int64_t>(*tile0),
                      static_cast<std::int64_t>(*tile1)),
            1);
}

TEST(SpiralMapping, NullTopologyKeepsTheIdOrderInitialRound) {
  // The default (no topology) must stay the paper's id-order initial
  // round: process c on core c — bit-identical to every committed
  // baseline.
  const ExtendedProcessGraph graph = independentProcesses(4);
  const SharingMatrix sharing =
      test::SharingBuilder(4).pair(0, 1, 100).build();
  const LocalityPlan plan = buildLocalityPlan(graph, sharing, 4);
  for (std::size_t c = 0; c < 4; ++c) {
    ASSERT_EQ(plan.perCore[c].size(), 1u);
    EXPECT_EQ(plan.perCore[c][0], static_cast<ProcessId>(c));
  }
}

TEST(SpiralMapping, TopologyNodeCountMustMatchCores) {
  const ExtendedProcessGraph graph = independentProcesses(4);
  const SharingMatrix sharing = diagonalFree(4);
  const NocTopology mesh(NocTopologyKind::Mesh, 16, 4);
  LocalityOptions options;
  options.topology = &mesh;  // 16 nodes, 4 cores: rejected eagerly
  EXPECT_THROW((void)buildLocalityPlan(graph, sharing, 4, options), Error);
}

// --- PlanIndex distance-aware keys ---------------------------------------

TEST(PlanIndexDistance, EqualSharingPrefersTheNearerHome) {
  // Anchor 0 shares equally with 1 and 2; process 1's home is the far
  // corner, process 2's the anchor core itself. Distance-blind the
  // smaller id (1) wins the tie; distance-aware the nearer home (2)
  // must win.
  const SharingMatrix sharing =
      test::SharingBuilder(3).pair(0, 1, 10).pair(0, 2, 10).build();
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityScore score;
  score.configure(&sharing, &mesh, 2);

  PlanIndex blind;
  blind.beginDispatch(sharing, 3, 4);
  blind.markReady(1);
  blind.markReady(2);
  EXPECT_EQ(blind.popBest(0, ProcessId{0}), ProcessId{1});

  PlanIndex aware;
  aware.beginDispatch(sharing, 3, 4);
  aware.enableDistance(&score);
  aware.setHome(1, 3);  // diagonal: 2 hops from core 0
  aware.setHome(2, 0);  // on the dispatching core
  aware.markReady(1);
  aware.markReady(2);
  EXPECT_EQ(aware.popBest(0, ProcessId{0}), ProcessId{2});
}

TEST(PlanIndexDistance, SharingStillDominatesDistance) {
  // kSharingScale guarantees one unit of sharing outweighs any on-die
  // hop penalty: the far-but-better-sharing candidate must still win.
  const SharingMatrix sharing =
      test::SharingBuilder(3).pair(0, 1, 11).pair(0, 2, 10).build();
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityScore score;
  score.configure(&sharing, &mesh, 2);
  PlanIndex index;
  index.beginDispatch(sharing, 3, 4);
  index.enableDistance(&score);
  index.setHome(1, 3);  // far
  index.setHome(2, 0);  // near
  index.markReady(1);
  index.markReady(2);
  EXPECT_EQ(index.popBest(0, ProcessId{0}), ProcessId{1});
}

TEST(PlanIndexDistance, AnchorlessPickIsTheNearestHome) {
  // Without an anchor every sharing term is 0, so aware keys reduce to
  // -penalty: the ready process homed nearest the core wins (smallest
  // id on equal distance) instead of the legacy smallest-id rule.
  const SharingMatrix sharing = diagonalFree(4);
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityScore score;
  score.configure(&sharing, &mesh, 1);
  PlanIndex index;
  index.beginDispatch(sharing, 4, 4);
  index.enableDistance(&score);
  index.setHome(0, 3);  // 2 hops from core 0
  index.setHome(1, 1);  // 1 hop
  index.setHome(2, 2);  // 1 hop: ties with 1, loses on id
  index.markReady(0);
  index.markReady(1);
  index.markReady(2);
  EXPECT_EQ(index.popBest(0, std::nullopt), ProcessId{1});
}

TEST(PlanIndexDistance, SetHomeInvalidatesCachedKeys) {
  // A home change between picks must not serve stale distance terms:
  // moving process 1's home onto the core flips the equal-sharing tie
  // its way.
  const SharingMatrix sharing =
      test::SharingBuilder(3).pair(0, 1, 10).pair(0, 2, 10).build();
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityScore score;
  score.configure(&sharing, &mesh, 2);
  PlanIndex index;
  index.beginDispatch(sharing, 3, 4);
  index.enableDistance(&score);
  index.setHome(1, 3);
  index.setHome(2, 0);
  index.markReady(1);
  index.markReady(2);
  // Pick once, then re-announce and rehome.
  EXPECT_EQ(index.popBest(0, ProcessId{0}), ProcessId{2});
  index.markReady(2);
  index.setHome(1, 0);  // now 1 is just as close — and wins on id
  EXPECT_EQ(index.popBest(0, ProcessId{0}), ProcessId{1});
}

TEST(PlanIndexDistance, HopWeightedPopPrefersHigherSharing) {
  // Under hop-weighted keys the sharing term still dominates: process 3
  // shares the most with the anchor and wins from two hops away.
  test::SharingBuilder builder(4);
  for (std::size_t q = 1; q < 4; ++q) {
    builder.pair(0, q, static_cast<std::int64_t>(10 * q));
  }
  const SharingMatrix sharing = builder.build();
  const NocTopology mesh(NocTopologyKind::Mesh, 4, 2);
  LocalityScore score;
  score.configure(&sharing, &mesh, 2);
  PlanIndex index;
  index.beginDispatch(sharing, 4, 4);
  index.enableDistance(&score);
  for (ProcessId p = 1; p < 4; ++p) {
    index.setHome(p, static_cast<std::size_t>(p));
    index.markReady(p);
  }
  ASSERT_EQ(index.popBest(0, ProcessId{0}), ProcessId{3});
}

// --- OnlineLocality option validation ------------------------------------

TEST(OnlineLocalityOptions, HopWeightMustBeNonNegative) {
  OnlineLocalityOptions options;
  options.hopWeight = 4;
  EXPECT_NO_THROW(options.validate());
  options.hopWeight = -1;
  EXPECT_THROW(options.validate(), Error);
  EXPECT_THROW(OnlineLocalityScheduler{options}, Error);
}

TEST(OnlineLocalityOptions, QuantumMustBeNonNegative) {
  OnlineLocalityOptions options;
  options.quantumCycles = -1;
  EXPECT_THROW(options.validate(), Error);
  options.quantumCycles = 0;  // non-preemptive: quantum() = nullopt
  EXPECT_EQ(OnlineLocalityScheduler(options).quantum(), std::nullopt);
  options.quantumCycles = 5000;
  EXPECT_EQ(OnlineLocalityScheduler(options).quantum(),
            std::optional<std::int64_t>{5000});
}

}  // namespace
}  // namespace laps
