/// \file relayout_differential_test.cpp
/// \brief Differential tests for the Fig. 5 re-layout selection:
/// planRelayout (one sorted walk over the pairs above T) must be
/// plan-identical to reference::planRelayout (the rescan loop as the
/// paper states it, reference_relayout.h) — same threshold, same
/// examined pairs in the same order, same per-array transforms — on
/// random tie-heavy matrices and on the LSM pipeline's real inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/laps.h"
#include "reference_relayout.h"

namespace laps {
namespace {

CacheConfig paperCache() { return CacheConfig{8192, 2, 32, 2}; }  // page 4096

void expectPlansEqual(const RelayoutPlan& got, const RelayoutPlan& want,
                      const std::string& context) {
  EXPECT_EQ(got.threshold, want.threshold) << context;
  ASSERT_EQ(got.examinedPairs, want.examinedPairs) << context;
  ASSERT_EQ(got.transforms.size(), want.transforms.size()) << context;
  for (std::size_t a = 0; a < got.transforms.size(); ++a) {
    EXPECT_EQ(got.transforms[a].isIdentity(), want.transforms[a].isIdentity())
        << context << " array " << a;
    EXPECT_EQ(got.transforms[a].phase(), want.transforms[a].phase())
        << context << " array " << a;
    EXPECT_EQ(got.transforms[a].pageBytes(), want.transforms[a].pageBytes())
        << context << " array " << a;
  }
}

TEST(PlanRelayoutDifferential, MatchesReferenceOnRandomMatrices) {
  // Small value ranges make ties frequent, so the (x asc, y asc)
  // tie-break is exercised on most trials; random eligibility, size
  // guards and fixed or mean T cover the skip paths.
  std::size_t examined = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const std::size_t n = static_cast<std::size_t>(rng.below(41));
    const auto levels = static_cast<std::int64_t>(1 + rng.below(6));
    ConflictMatrix m(n);
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; ++y) {
        const std::int64_t v = rng.range(0, levels) * (1 + (x + y) % 2);
        m.set(x, y, v);
        m.set(y, x, v);
      }
    }
    const std::uint64_t eligiblePercent = rng.below(101);
    std::vector<bool> eligibleCells(n * n, false);
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; ++y) {
        eligibleCells[x * n + y] = rng.below(100) < eligiblePercent;
      }
    }
    const PairEligibility eligible = [&eligibleCells, n](ArrayId x, ArrayId y) {
      return eligibleCells[std::min<std::size_t>(x, y) * n +
                           std::max<std::size_t>(x, y)];
    };
    RelayoutLimits limits;
    if (rng.below(2) == 0) {
      limits.maxFootprintBytes = 1000;
      for (std::size_t a = 0; a < n; ++a) {
        limits.arrayFootprintBytes.push_back(rng.range(0, 1500));
      }
    }
    std::optional<std::int64_t> threshold;
    if (rng.below(2) == 0) threshold = rng.range(0, 2 * levels);

    const RelayoutPlan got =
        planRelayout(m, paperCache(), eligible, threshold, limits);
    const RelayoutPlan want =
        reference::planRelayout(m, paperCache(), eligible, threshold, limits);
    expectPlansEqual(got, want, "seed " + std::to_string(seed));
    examined += want.examinedPairs.size();
  }
  EXPECT_GT(examined, 1000u);  // the trials are not vacuous
}

TEST(PlanRelayoutDifferential, MatchesReferenceOnRealWorkload) {
  // The LSM pipeline's own inputs, built the way runExperiment builds
  // them: the conflict matrix of a concurrent suite mix weighted by
  // reference counts, the LS-plan eligibility and the size guard.
  const ExperimentConfig config;
  const CacheConfig& l1d = config.mpsoc.memory.l1d;
  const Workload mix = concurrentScenario(standardSuite(), 12);
  const std::vector<Footprint> footprints = mix.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(footprints);
  const LocalityPlan plan =
      buildLocalityPlan(mix.graph, sharing, config.mpsoc.coreCount);
  const PairEligibility eligible =
      scheduleEligibility(plan.perCore, footprints, mix.arrays.size());
  std::vector<std::int64_t> refCounts(mix.arrays.size(), 0);
  for (const ProcessSpec& p : mix.graph.processes()) {
    for (const LoopNest& nest : p.nests) {
      for (const ArrayAccess& access : nest.accesses) {
        refCounts[access.array] += nest.space.numPoints();
      }
    }
  }
  const AddressSpace space(mix.arrays, config.addressSpace);
  const ConflictMatrix conflicts =
      ConflictMatrix::compute(mix.arrays, footprints, space, l1d, refCounts);
  RelayoutLimits limits;
  limits.maxFootprintBytes = l1d.cachePageBytes() * 3 / 4;
  limits.arrayFootprintBytes.assign(mix.arrays.size(), 0);
  for (const Footprint& fp : footprints) {
    for (const auto& [id, elems] : fp.perArray()) {
      limits.arrayFootprintBytes[id] =
          std::max(limits.arrayFootprintBytes[id],
                   elems.cardinality() * mix.arrays.at(id).elemSize);
    }
  }

  for (const std::optional<std::int64_t> threshold :
       {std::optional<std::int64_t>{}, std::optional<std::int64_t>{0}}) {
    const std::string context =
        threshold ? "fixed T = " + std::to_string(*threshold) : "mean T";
    const RelayoutPlan got =
        planRelayout(conflicts, l1d, eligible, threshold, limits);
    const RelayoutPlan want =
        reference::planRelayout(conflicts, l1d, eligible, threshold, limits);
    expectPlansEqual(got, want, context + ", size guard");
    EXPECT_GT(want.relayoutCount(), 0u) << context;
    expectPlansEqual(planRelayout(conflicts, l1d, alwaysEligible(), threshold),
                     reference::planRelayout(conflicts, l1d, alwaysEligible(),
                                             threshold),
                     context + ", every pair eligible");
  }
}

}  // namespace
}  // namespace laps
