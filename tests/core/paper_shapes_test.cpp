/// Integration tests asserting the paper's qualitative claims end-to-end
/// (small scales so the suite stays fast), plus coverage of the
/// refinements docs/ARCHITECTURE.md §5 documents.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "sched/locality.h"
#include "util/table.h"

namespace laps {
namespace {

TEST(PaperShapes, RrsPreemptionCostsMissesOnSweptWorkloads) {
  // Fig. 6 mechanism: RRS's quantum slicing re-fetches swept blocks.
  const Application app = makeMedIm04();
  const auto ls = runExperiment(app.workload, SchedulerKind::Locality, {});
  const auto rrs = runExperiment(app.workload, SchedulerKind::RoundRobin, {});
  EXPECT_GT(rrs.sim.dcacheTotal.misses, ls.sim.dcacheTotal.misses * 3 / 2);
  EXPECT_GT(rrs.sim.preemptions, 0u);
  EXPECT_GT(rrs.sim.seconds, ls.sim.seconds);
}

TEST(PaperShapes, LsNeverLosesMissesToRsAcrossSuite) {
  for (const auto& app : standardSuite()) {
    const auto ls = runExperiment(app.workload, SchedulerKind::Locality, {});
    const auto rs = runExperiment(app.workload, SchedulerKind::Random, {});
    EXPECT_LE(ls.sim.dcacheTotal.misses, rs.sim.dcacheTotal.misses)
        << app.name;
  }
}

TEST(PaperShapes, LsmRemovesTrackTwinArrayConflicts) {
  // Track's congruent cur/diff frames are the live Fig. 4 K1/K2 case.
  const Application app = makeTrack();
  ExperimentConfig cfg;
  cfg.mpsoc.memory.classifyMisses = true;
  const auto ls = runExperiment(app.workload, SchedulerKind::Locality, cfg);
  const auto lsm =
      runExperiment(app.workload, SchedulerKind::LocalityMapping, cfg);
  EXPECT_GT(lsm.relayoutedArrays, 0u);
  EXPECT_LT(lsm.sim.dataMisses.conflict, ls.sim.dataMisses.conflict / 2);
  EXPECT_LT(lsm.sim.seconds, ls.sim.seconds);
}

TEST(PaperShapes, LsmGapWidensWithConcurrency) {
  // Fig. 7 headline: the LS->LSM improvement at |T|=5 exceeds |T|=1.
  const auto suite = standardSuite();
  const auto gapAt = [&](std::size_t t) {
    const Workload mix = concurrentScenario(suite, t);
    const auto ls = runExperiment(mix, SchedulerKind::Locality, {});
    const auto lsm = runExperiment(mix, SchedulerKind::LocalityMapping, {});
    return percentImprovement(ls.sim.seconds, lsm.sim.seconds);
  };
  const double at1 = gapAt(1);
  const double at5 = gapAt(5);
  EXPECT_NEAR(at1, 0.0, 1.0);  // isolated: LS ~= LSM (paper Fig. 6)
  EXPECT_GT(at5, 5.0);         // concurrent: LSM clearly ahead (Fig. 7)
}

TEST(PaperShapes, SchedulingEffectsVanishWithHugeCache) {
  // With a cache that holds everything, scheduler choice stops mattering
  // (sanity check that the differences we measure are cache effects).
  const Application app = makeShape();
  ExperimentConfig cfg;
  cfg.mpsoc.memory.l1d.sizeBytes = 1 << 20;
  cfg.mpsoc.memory.l1i.sizeBytes = 1 << 20;
  const auto ls = runExperiment(app.workload, SchedulerKind::Locality, cfg);
  const auto rs = runExperiment(app.workload, SchedulerKind::Random, cfg);
  const double delta = percentImprovement(rs.sim.seconds, ls.sim.seconds);
  EXPECT_NEAR(delta, 0.0, 1.0);
}

TEST(PaperShapes, HigherMemoryLatencyAmplifiesLocalityWins) {
  const Application app = makeMxM();
  const auto gainAt = [&](std::int64_t latency) {
    ExperimentConfig cfg;
    cfg.mpsoc.memory.memLatencyCycles = latency;
    const auto ls = runExperiment(app.workload, SchedulerKind::Locality, cfg);
    const auto rrs =
        runExperiment(app.workload, SchedulerKind::RoundRobin, cfg);
    return rrs.sim.seconds - ls.sim.seconds;
  };
  EXPECT_GT(gainAt(150), gainAt(25));
}

TEST(OnlineLs, BeatsStaticPlanOnUtilization) {
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 2);
  const auto fps = mix.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(fps);
  const AddressSpace space(mix.arrays);
  const MpsocConfig mpsoc;

  LocalityScheduler online({.staticPlan = false});
  LocalityScheduler rigid({.staticPlan = true});
  const SimResult a = MpsocSimulator(mix, space, sharing, online, mpsoc).run();
  const SimResult b = MpsocSimulator(mix, space, sharing, rigid, mpsoc).run();
  EXPECT_GE(a.utilization(), b.utilization());
  EXPECT_LE(a.makespanCycles, b.makespanCycles);
}

TEST(SplitDim, PartitionsInnerDimensionKeepingSweeps) {
  // splitDim(1, 4) keeps the sweep loop (dim 0) intact per block.
  const auto space = IterationSpace::box({{0, 3}, {0, 20}, {0, 7}});
  const auto blocks = space.splitDim(1, 4);
  ASSERT_EQ(blocks.size(), 4u);
  std::int64_t total = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.dim(0).tripCount(), 3);
    EXPECT_EQ(b.dim(2).tripCount(), 7);
    total += b.numPoints();
  }
  EXPECT_EQ(total, space.numPoints());
  EXPECT_EQ(blocks[0].dim(1).tripCount(), 5);
}

TEST(SplitDim, OutOfRangeThrows) {
  const auto space = IterationSpace::box({{0, 4}});
  EXPECT_THROW((void)space.splitDim(1, 2), Error);
}

TEST(RelayoutLimits, GuardBlocksOversizedArrays) {
  ConflictMatrix m(2);
  m.set(0, 1, 1000);
  m.set(1, 0, 1000);
  const CacheConfig cache{};
  // Array 1's working set exceeds the cap: no transform at all (pairs
  // need both sides to fit).
  RelayoutLimits limits;
  limits.arrayFootprintBytes = {1024, 100'000};
  limits.maxFootprintBytes = 3072;
  const RelayoutPlan blocked =
      planRelayout(m, cache, alwaysEligible(), 10, limits);
  EXPECT_EQ(blocked.relayoutCount(), 0u);
  // Both fit: transform proceeds.
  limits.arrayFootprintBytes = {1024, 2048};
  const RelayoutPlan allowed =
      planRelayout(m, cache, alwaysEligible(), 10, limits);
  EXPECT_EQ(allowed.relayoutCount(), 2u);
}

TEST(ConflictMatrix, DensityWeightingPrefersHotPairs) {
  ArrayTable arrays;
  const ArrayId hotA = arrays.add("hotA", {512}, 4);   // 2 KB
  const ArrayId hotB = arrays.add("hotB", {512}, 4);   // 2 KB
  const ArrayId stream = arrays.add("stream", {1 << 14}, 4);  // 64 KB
  std::vector<Footprint> fps(3);
  fps[0].add(hotA, IntervalSet::range(0, 512));
  fps[1].add(hotB, IntervalSet::range(0, 512));
  fps[2].add(stream, IntervalSet::range(0, 1 << 14));
  const AddressSpace space(arrays);
  const CacheConfig cache{};
  // Unweighted: the stream pairs dominate.
  const ConflictMatrix plain =
      ConflictMatrix::compute(arrays, fps, space, cache);
  EXPECT_GT(plain.at(0, 2), plain.at(0, 1));
  // Weighted by reference counts (hot arrays swept 100x, stream once):
  // the hot pair dominates.
  const std::vector<std::int64_t> refs{512 * 100, 512 * 100, 1 << 14};
  const ConflictMatrix weighted =
      ConflictMatrix::compute(arrays, fps, space, cache, refs);
  EXPECT_GT(weighted.at(0, 1), weighted.at(0, 2));
}

TEST(EnergyModel, OffChipTrafficDominates) {
  SimResult few;
  few.dcacheTotal.accesses = 1000;
  few.dcacheTotal.misses = 10;
  few.coreBusyCycles = {1000};
  few.coreIdleCycles = {0};
  SimResult many = few;
  many.dcacheTotal.misses = 500;
  const EnergyModel model;
  EXPECT_GT(model.totalMj(many), model.totalMj(few));
}

}  // namespace
}  // namespace laps
