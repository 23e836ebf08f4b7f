/// \file plan_index_test.cpp
/// \brief Differential property tests for the indexed planner core:
/// buildLocalityPlan (ready-set argmax + cached indegrees) must be
/// plan-identical to reference::buildPlan (the Fig. 3 loops as written,
/// reference_planner.h) on random DAGs across subset spans and core
/// counts, and dispatch-mode popBest must match the reference
/// pickMaxSharing decision for decision. The audit seams
/// (auditReadySet / corruptSlotForTest, and the planner's symmetry
/// precondition) are proven to fire on injected violations.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/laps.h"
#include "reference_planner.h"
#include "util/audit.h"

namespace laps {
namespace {

/// Random DAG over \p n processes: edges only from lower to higher ids
/// (acyclic by construction), density ~ edgePercent per candidate pair,
/// capped at a handful of predecessors so wide ready fronts survive.
ExtendedProcessGraph randomDag(Rng& rng, std::size_t n,
                               std::uint64_t edgePercent) {
  ExtendedProcessGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "R" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  for (std::size_t to = 1; to < n; ++to) {
    std::size_t preds = 0;
    for (std::size_t from = 0; from < to && preds < 4; ++from) {
      if (rng.below(100) < edgePercent) {
        graph.addDependence(static_cast<ProcessId>(from),
                            static_cast<ProcessId>(to));
        ++preds;
      }
    }
  }
  return graph;
}

/// Random symmetric sharing matrix with a small value range so ties are
/// common — the tie-break (smallest id) is the part most worth pinning.
/// Off-diagonal cells are drawn from {0, unit, ..., (levels-1)·unit}.
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

void expectPlansEqual(const LocalityPlan& a, const LocalityPlan& b,
                      std::uint64_t seed, std::size_t coreCount) {
  ASSERT_EQ(a.perCore.size(), b.perCore.size())
      << "seed " << seed << " cores " << coreCount;
  for (std::size_t c = 0; c < a.perCore.size(); ++c) {
    ASSERT_EQ(a.perCore[c], b.perCore[c])
        << "seed " << seed << " cores " << coreCount << " core " << c;
  }
}

TEST(PlanIndexDifferential, MatchesReferenceOnRandomDags) {
  // 200 random DAGs x core counts x options x subset spans. Any
  // divergence prints the seed, so a failure reproduces standalone.
  // Seeds 200..202 are dependence-free sets in the hundreds with
  // sharing drawn from {0, 256, 512}, the keyed service workload's
  // values: ties everywhere, a trim of hundreds of removals and a ready
  // front as wide as the set.
  for (std::uint64_t seed = 0; seed < 203; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const bool wide = seed >= 200;
    const std::size_t n =
        wide ? 200 + static_cast<std::size_t>(rng.below(120))
             : 1 + static_cast<std::size_t>(rng.below(48));
    const std::uint64_t density = wide ? 0 : 5 + rng.below(45);
    const ExtendedProcessGraph graph = randomDag(rng, n, density);
    const SharingMatrix sharing =
        wide ? randomSharing(rng, n, 3, 256) : randomSharing(rng, n);

    LocalityOptions options;
    options.initialMinSharingRound = (seed % 2 == 0);

    for (const std::size_t coreCount : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{8}}) {
      expectPlansEqual(
          buildLocalityPlan(graph, sharing, coreCount, options),
          reference::buildPlan(graph, sharing, coreCount, options),
          seed, coreCount);
    }

    // A random subset span (the OLS rebuild path plans over the live
    // subset, not the full universe).
    std::vector<ProcessId> subset;
    for (ProcessId p = 0; p < n; ++p) subset.push_back(p);
    rng.shuffle(subset);
    subset.resize(1 + static_cast<std::size_t>(rng.below(n)));
    std::sort(subset.begin(), subset.end());
    const std::size_t coreCount = 1 + static_cast<std::size_t>(rng.below(8));
    expectPlansEqual(
        buildLocalityPlan(graph, sharing, coreCount, options, subset),
        reference::buildPlan(graph, sharing, coreCount, options, subset),
        seed, coreCount);
  }
}

TEST(PlanIndexDifferential, MatchesReferenceOnRealWorkload) {
  // The benchmark-suite mixes exercise the realistic sharing topology
  // (dense blocks within an application, sparse across), closed and
  // open.
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 3);
  const SharingMatrix sharing = SharingMatrix::compute(mix.footprints());
  for (const std::size_t coreCount : {std::size_t{2}, std::size_t{8}}) {
    expectPlansEqual(buildLocalityPlan(mix.graph, sharing, coreCount),
                     reference::buildPlan(mix.graph, sharing, coreCount),
                     9999, coreCount);
  }

  // Open mode, the OLS rebuild's input: a matrix grown by addProcess
  // over the keyed service workload (sharing in {0, 256, 512}), with
  // every seventh request never activated, planned over the active
  // requests minus every ninth id (the running processes). The trim
  // then skips both inactive processes and active non-members.
  ServiceWorkloadParams params;
  params.requestCount = 200;
  const Workload service = makeServiceWorkload(params);
  const std::vector<Footprint> footprints = service.footprints();
  SharingMatrix open = SharingMatrix::inactive(footprints.size());
  std::vector<ProcessId> subset;
  for (ProcessId p = 0; p < footprints.size(); ++p) {
    if (p % 7 == 3) continue;
    open.addProcess(footprints, p);
    if (p % 9 != 4) subset.push_back(p);
  }
  for (const std::size_t coreCount : {std::size_t{2}, std::size_t{8}}) {
    expectPlansEqual(
        buildLocalityPlan(service.graph, open, coreCount, {}, subset),
        reference::buildPlan(service.graph, open, coreCount, {}, subset),
        10000, coreCount);
  }
}

TEST(PlanIndexDifferential, DispatchPopMatchesReferencePick) {
  // Dispatch mode against the reference argmax: random interleavings of
  // markReady / markUnready / popBest must agree with pickMaxSharing
  // over a mirrored ready vector at every pick.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 0x517cc1b727220a95ULL + 3);
    const std::size_t n = 4 + static_cast<std::size_t>(rng.below(40));
    const SharingMatrix sharing = randomSharing(rng, n);
    const std::size_t coreCount = 1 + static_cast<std::size_t>(rng.below(4));

    PlanIndex index;
    index.beginDispatch(sharing, n, coreCount);
    std::vector<bool> mirror(n, false);

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t action = rng.below(10);
      const auto p = static_cast<ProcessId>(rng.below(n));
      if (action < 4) {
        index.markReady(p);
        mirror[p] = true;
      } else if (action < 5) {
        if (index.isReady(p)) index.markUnready(p);
        mirror[p] = false;
      } else {
        const auto core = static_cast<std::size_t>(rng.below(coreCount));
        std::optional<ProcessId> anchor;
        if (rng.below(4) != 0) anchor = static_cast<ProcessId>(rng.below(n));
        const auto expected =
            reference::pickMaxSharing(mirror, sharing, anchor);
        const auto got = index.popBest(core, anchor);
        ASSERT_EQ(got, expected) << "seed " << seed << " step " << step;
        if (got) mirror[*got] = false;  // popBest marks the winner unready
      }
      ASSERT_EQ(index.readyCount(),
                static_cast<std::size_t>(
                    std::count(mirror.begin(), mirror.end(), true)));
      ASSERT_NO_THROW(index.auditReadySet()) << "seed " << seed;
    }
  }
}

TEST(PlanIndexAudit, CleanStateAgrees) {
  SharingMatrix sharing(6);
  for (std::size_t q = 1; q < 6; ++q) {
    sharing.set(0, q, static_cast<std::int64_t>(10 * q));
    sharing.set(q, 0, static_cast<std::int64_t>(10 * q));
  }
  PlanIndex index;
  index.beginDispatch(sharing, 6, 2);
  for (ProcessId p = 1; p < 6; ++p) index.markReady(p);
  // The checker is an ordinary function: callable (and clean) in every
  // build configuration, sampled from popBest only under LAPS_AUDIT.
  EXPECT_NO_THROW(index.auditReadySet());
  const auto best = index.popBest(0, ProcessId{0});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 5u);  // max sharing(0, q) = 50
  index.markUnready(2);  // swap-removes from the middle of the set
  EXPECT_NO_THROW(index.auditReadySet());
  EXPECT_EQ(index.readyCount(), 3u);
}

TEST(PlanIndexAudit, BrokenPositionMapFiresChecker) {
  SharingMatrix sharing(6);
  const auto readyOneToFour = [&](PlanIndex& index) {
    index.beginDispatch(sharing, 6, 1);
    for (ProcessId p = 1; p < 5; ++p) index.markReady(p);
  };
  PlanIndex index;
  // A listed process whose position map entry points at another slot.
  readyOneToFour(index);
  index.corruptSlotForTest(1, 3);
  EXPECT_THROW(index.auditReadySet(), AuditError);
  // A process flagged ready that the ready set does not list: picks
  // never see it, yet isReady() reports it.
  readyOneToFour(index);
  index.corruptSlotForTest(5, 0);
  EXPECT_TRUE(index.isReady(5));
  EXPECT_THROW(index.auditReadySet(), AuditError);
  // The seam itself rejects unknown processes.
  EXPECT_THROW(index.corruptSlotForTest(6, 0), Error);
}

TEST(PlanIndexAudit, SampledPopDetectsBrokenReadySet) {
  // The macro path: popBest audits pops 1, 17, 33, ... (kAuditSampleEvery
  // = 16). Flag a never-ready process after pop 1 and walk to pop 17:
  // under LAPS_AUDIT the sampled check must throw; without it, the ghost
  // passes silently — isReady() says yes while no pick ever serves it.
  constexpr std::size_t kN = 30;
  SharingMatrix sharing(kN);
  for (std::size_t q = 1; q < kN; ++q) {
    const auto s = static_cast<std::int64_t>(1000 - q);
    sharing.set(0, q, s);
    sharing.set(q, 0, s);
  }
  PlanIndex index;
  index.beginDispatch(sharing, kN, 1);
  for (ProcessId p = 1; p < 26; ++p) index.markReady(p);

  ASSERT_EQ(index.popBest(0, ProcessId{0}), ProcessId{1});  // pop 1: audited, clean
  index.corruptSlotForTest(27, 0);  // flagged, not listed
  for (ProcessId expect = 2; expect <= 16; ++expect) {
    ASSERT_EQ(index.popBest(0, ProcessId{0}), expect);  // unsampled pops
  }
  static_assert(PlanIndex::kAuditSampleEvery == 16);
  if (audit::enabled()) {
    EXPECT_THROW((void)index.popBest(0, ProcessId{0}), AuditError);
  } else {
    EXPECT_EQ(index.popBest(0, ProcessId{0}), ProcessId{17});
    EXPECT_TRUE(index.isReady(27));
  }
}

TEST(PlanIndexAudit, AsymmetricSharingFiresPlannerPrecondition) {
  // buildLocalityPlan's trim reads rows where the Fig. 3 loop reads
  // columns, so it requires a matrix symmetric over the planned subset.
  ExtendedProcessGraph graph;
  for (int i = 0; i < 4; ++i) {
    ProcessSpec p;
    p.name = "A" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  SharingMatrix sharing(4);
  sharing.set(0, 1, 5);  // (1, 0) stays 0
  sharing.set(2, 3, 7);
  sharing.set(3, 2, 7);
  const std::vector<ProcessId> symmetricPart{2, 3};
  EXPECT_NO_THROW((void)buildLocalityPlan(graph, sharing, 1, {},
                                          symmetricPart));
  if (audit::enabled()) {
    EXPECT_THROW((void)buildLocalityPlan(graph, sharing, 2), AuditError);
  } else {
    EXPECT_NO_THROW((void)buildLocalityPlan(graph, sharing, 2));
  }
}

TEST(PlanIndexPlanner, PlaceReleasesSuccessors) {
  // Planner mode owns readiness: a chain 0 -> 1 -> 2 becomes ready one
  // link at a time as place() decrements cached indegrees.
  ExtendedProcessGraph graph;
  for (int i = 0; i < 3; ++i) {
    ProcessSpec p;
    p.name = "C" + std::to_string(i);
    graph.addProcess(std::move(p));
  }
  graph.addDependence(0, 1);
  graph.addDependence(1, 2);
  SharingMatrix sharing(3);
  PlanIndex index;
  index.beginPlanner(graph, sharing, 1, std::vector<bool>(3, true));
  EXPECT_EQ(index.readyCount(), 1u);
  EXPECT_TRUE(index.isReady(0));
  const auto head = index.popBest(0, std::nullopt);
  ASSERT_EQ(head, ProcessId{0});
  EXPECT_EQ(index.readyCount(), 0u);
  index.place(*head);
  EXPECT_TRUE(index.isReady(1));
  EXPECT_FALSE(index.isReady(2));
}

}  // namespace
}  // namespace laps
