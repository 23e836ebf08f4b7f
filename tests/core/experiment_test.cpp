#include "core/experiment.h"

#include <gtest/gtest.h>

namespace laps {
namespace {

/// Shrunken platform/workload so the full pipeline stays fast in tests.
ExperimentConfig testConfig() {
  ExperimentConfig cfg;
  cfg.mpsoc.coreCount = 4;
  return cfg;
}

AppParams smallApps() {
  AppParams p;
  p.scale = 0.5;
  return p;
}

/// One process reading 64 elements of an 8-element array: fails
/// validateWorkload.
Workload outOfBoundsWorkload() {
  Workload bad;
  const ArrayId v = bad.arrays.add("V", {8}, 4);
  ProcessSpec p;
  p.name = "oob";
  p.nests.push_back(
      LoopNest{IterationSpace::box({{0, 64}}),
               {ArrayAccess{v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
               1});
  bad.graph.addProcess(std::move(p));
  return bad;
}

TEST(RunExperiment, ProducesCompleteMetrics) {
  const Application app = makeShape(smallApps());
  const ExperimentResult r =
      runExperiment(app.workload, SchedulerKind::Locality, testConfig());
  EXPECT_EQ(r.schedulerName, "LS");
  EXPECT_GT(r.sim.makespanCycles, 0);
  EXPECT_GT(r.sim.seconds, 0.0);
  EXPECT_GT(r.sim.dcacheTotal.accesses, 0u);
  EXPECT_GT(r.energyMj, 0.0);
  for (const auto& p : r.sim.processes) {
    EXPECT_GE(p.completionCycle, 0) << "process " << p.id << " unfinished";
  }
}

TEST(RunExperiment, PaperSchedulerSetRuns) {
  const Application app = makeShape(smallApps());
  const auto kinds = paperSchedulers();
  ASSERT_EQ(kinds.size(), 4u);
  const auto results = compareSchedulers(app.workload, kinds, testConfig());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].schedulerName, "RS");
  EXPECT_EQ(results[1].schedulerName, "RRS");
  EXPECT_EQ(results[2].schedulerName, "LS");
  EXPECT_EQ(results[3].schedulerName, "LSM");
  for (const auto& r : results) {
    EXPECT_GT(r.sim.makespanCycles, 0) << r.schedulerName;
  }
}

TEST(RunExperiment, Deterministic) {
  const Application app = makeTrack(smallApps());
  const ExperimentResult a =
      runExperiment(app.workload, SchedulerKind::Random, testConfig());
  const ExperimentResult b =
      runExperiment(app.workload, SchedulerKind::Random, testConfig());
  EXPECT_EQ(a.sim.makespanCycles, b.sim.makespanCycles);
  EXPECT_EQ(a.sim.dcacheTotal.misses, b.sim.dcacheTotal.misses);
}

TEST(RunExperiment, LocalityBeatsRandomOnIsolatedApp) {
  // The paper's headline claim (Fig. 6): LS/LSM beat RS and RRS when an
  // application runs in isolation, because its processes share heavily.
  // Full-scale MxM: the matrices (9 KB each) exceed the 8 KB L1, so cache
  // behaviour matters (at tiny scales everything fits and schedulers tie).
  const Application app = makeMxM();
  ExperimentConfig cfg;  // Table 2 platform: 8 cores
  const auto ls = runExperiment(app.workload, SchedulerKind::Locality, cfg);
  const auto rs = runExperiment(app.workload, SchedulerKind::Random, cfg);
  const auto rrs = runExperiment(app.workload, SchedulerKind::RoundRobin, cfg);
  EXPECT_LT(ls.sim.dcacheTotal.misses, rs.sim.dcacheTotal.misses);
  EXPECT_LE(ls.sim.makespanCycles, rs.sim.makespanCycles);
  EXPECT_LT(ls.sim.dcacheTotal.misses, rrs.sim.dcacheTotal.misses);
  EXPECT_LE(ls.sim.makespanCycles, rrs.sim.makespanCycles);
}

TEST(RunExperiment, LsmAppliesRelayoutOnConcurrentMix) {
  // With several applications resident, LSM must actually transform
  // arrays (cross-application conflicts exist by construction).
  const auto suite = standardSuite(smallApps());
  const Workload mix = concurrentScenario(suite, 3);
  const ExperimentResult lsm =
      runExperiment(mix, SchedulerKind::LocalityMapping, testConfig());
  EXPECT_GT(lsm.relayoutedArrays, 0u);
  EXPECT_GT(lsm.relayoutThreshold, 0);
  // Plain LS must not re-layout anything.
  const ExperimentResult ls =
      runExperiment(mix, SchedulerKind::Locality, testConfig());
  EXPECT_EQ(ls.relayoutedArrays, 0u);
}

TEST(RunExperiment, LsmReducesConflictMissesVsLs) {
  const auto suite = standardSuite(smallApps());
  const Workload mix = concurrentScenario(suite, 3);
  ExperimentConfig cfg = testConfig();
  cfg.mpsoc.memory.classifyMisses = true;
  const auto ls = runExperiment(mix, SchedulerKind::Locality, cfg);
  const auto lsm = runExperiment(mix, SchedulerKind::LocalityMapping, cfg);
  EXPECT_LT(lsm.sim.dataMisses.conflict, ls.sim.dataMisses.conflict)
      << "re-layout must remove conflict misses";
}

TEST(RunExperiment, ExtensionSchedulersRun) {
  const Application app = makeShape(smallApps());
  for (const auto kind :
       {SchedulerKind::Fcfs, SchedulerKind::Sjf, SchedulerKind::CriticalPath,
        SchedulerKind::DynamicLocality}) {
    const ExperimentResult r = runExperiment(app.workload, kind, testConfig());
    EXPECT_GT(r.sim.makespanCycles, 0) << to_string(kind);
  }
}

TEST(RunExperiment, ThresholdOverrideControlsRelayout) {
  const auto suite = standardSuite(smallApps());
  const Workload mix = concurrentScenario(suite, 2);
  ExperimentConfig cfg = testConfig();
  // An absurdly high threshold disables re-layout entirely.
  cfg.relayoutThreshold = std::int64_t{1} << 60;
  const auto off =
      runExperiment(mix, SchedulerKind::LocalityMapping, cfg);
  EXPECT_EQ(off.relayoutedArrays, 0u);
  // Threshold 0 re-layouts every eligible conflicting pair.
  cfg.relayoutThreshold = 0;
  const auto aggressive =
      runExperiment(mix, SchedulerKind::LocalityMapping, cfg);
  EXPECT_GT(aggressive.relayoutedArrays, 0u);
}

TEST(RunExperiment, NegativeThresholdRejectedBeforeWorkload) {
  // The config is checked first, whichever scheduler runs: with a
  // workload that fails its own validation the error names the threshold.
  ExperimentConfig cfg = testConfig();
  cfg.relayoutThreshold = -1;
  for (const auto kind : {SchedulerKind::LocalityMapping, SchedulerKind::Random}) {
    try {
      (void)runExperiment(outOfBoundsWorkload(), kind, cfg);
      ADD_FAILURE() << "negative relayoutThreshold accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("relayoutThreshold"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunExperiment, RejectsMalformedWorkload) {
  EXPECT_THROW((void)runExperiment(outOfBoundsWorkload(), SchedulerKind::Locality,
                                   testConfig()),
               Error);
}

}  // namespace
}  // namespace laps
