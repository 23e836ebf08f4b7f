/// \file replay_test.cpp
/// \brief Differential tests: run-length replay must produce SimResults
/// bit-identical to per-event replay — same makespan, cache statistics,
/// miss classification, preemption points and per-process records — on
/// synthetic stress workloads and on the paper's standard suite under all
/// four paper schedulers.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "layout/transform.h"
#include "sched/basic.h"
#include "sim/engine.h"

namespace laps {
namespace {

void expectStatsEqual(const CacheStats& a, const CacheStats& b,
                      const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.dirtyEvictions, b.dirtyEvictions) << what;
  EXPECT_EQ(a.invalidations, b.invalidations) << what;
}

void expectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespanCycles, b.makespanCycles);
  EXPECT_EQ(a.seconds, b.seconds);
  expectStatsEqual(a.dcacheTotal, b.dcacheTotal, "dcache");
  expectStatsEqual(a.icacheTotal, b.icacheTotal, "icache");
  EXPECT_EQ(a.dataMisses.compulsory, b.dataMisses.compulsory);
  EXPECT_EQ(a.dataMisses.capacity, b.dataMisses.capacity);
  EXPECT_EQ(a.dataMisses.conflict, b.dataMisses.conflict);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.switchOverheadCycles, b.switchOverheadCycles);
  EXPECT_EQ(a.sharedL2Enabled, b.sharedL2Enabled);
  expectStatsEqual(a.l2Total, b.l2Total, "l2");
  EXPECT_EQ(a.l2BankWaitCycles, b.l2BankWaitCycles);
  EXPECT_EQ(a.inclusionWritebacks, b.inclusionWritebacks);
  EXPECT_EQ(a.busTransactions, b.busTransactions);
  EXPECT_EQ(a.busWaitCycles, b.busWaitCycles);
  EXPECT_EQ(a.coreBusyCycles, b.coreBusyCycles);
  EXPECT_EQ(a.coreIdleCycles, b.coreIdleCycles);
  ASSERT_EQ(a.processes.size(), b.processes.size());
  for (std::size_t p = 0; p < a.processes.size(); ++p) {
    EXPECT_EQ(a.processes[p].firstStartCycle, b.processes[p].firstStartCycle)
        << "process " << p;
    EXPECT_EQ(a.processes[p].completionCycle, b.processes[p].completionCycle)
        << "process " << p;
    EXPECT_EQ(a.processes[p].lastCore, b.processes[p].lastCore)
        << "process " << p;
    EXPECT_EQ(a.processes[p].segments, b.processes[p].segments)
        << "process " << p;
  }
}

/// A stress workload exercising every run shape: single-stream sweeps,
/// multi-access iterations (read + write + loop-invariant scalar),
/// transposed (line-jumping) strides, reversed (negative-stride) sweeps,
/// pure-compute nests, multiple nests per process, and dependences.
struct StressRig {
  Workload workload;
  ArrayId a, b, c;

  StressRig() {
    a = workload.arrays.add("A", {64, 64}, 4);
    b = workload.arrays.add("B", {64, 64}, 4);
    c = workload.arrays.add("C", {256}, 4);
  }

  ProcessId addStream(std::int64_t lo, std::int64_t hi) {
    ProcessSpec p;
    p.name = "stream";
    p.nests.push_back(LoopNest{
        IterationSpace::box({{lo, hi}}),
        {ArrayAccess{c, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        1});
    return workload.graph.addProcess(std::move(p));
  }

  ProcessId addMulAdd(std::int64_t rowLo, std::int64_t rowHi) {
    ProcessSpec p;
    p.name = "muladd";
    // (i, j): B[i][j] += A[i][j] * C[i]  — stride-4 read, stride-4 write,
    // loop-invariant (stride-0) read.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{rowLo, rowHi}, {0, 64}}),
        {ArrayAccess{a, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)},
                     AccessKind::Read},
         ArrayAccess{c, AffineMap{AffineExpr({1, 0}, 0)}, AccessKind::Read},
         ArrayAccess{b, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)},
                     AccessKind::Write}},
        2});
    // Transposed sweep: A[j][i] — 256-byte stride jumps a line every step.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{rowLo, rowHi}, {0, 64}}),
        {ArrayAccess{a, AffineMap{AffineExpr({0, 1}, 0), AffineExpr({1, 0}, 0)},
                     AccessKind::Read}},
        1});
    // Pure compute.
    p.nests.push_back(LoopNest{IterationSpace::box({{0, 500}}), {}, 3});
    return workload.graph.addProcess(std::move(p));
  }

  ProcessId addReversed() {
    ProcessSpec p;
    p.name = "reversed";
    // C[255 - i]: negative stride.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, 256}}),
        {ArrayAccess{c, AffineMap{AffineExpr({-1}, 255)}, AccessKind::Write}},
        1});
    return workload.graph.addProcess(std::move(p));
  }

  SimResult run(SchedulerPolicy& policy, MpsocConfig cfg, ReplayMode mode,
                const AddressSpace* spaceOverride = nullptr) {
    cfg.replayMode = mode;
    const AddressSpace defaultSpace(workload.arrays);
    const AddressSpace& space = spaceOverride ? *spaceOverride : defaultSpace;
    const SharingMatrix sharing = SharingMatrix::compute(workload.footprints());
    MpsocSimulator sim(workload, space, sharing, policy, cfg);
    return sim.run();
  }
};

MpsocConfig stressConfig(std::size_t cores) {
  MpsocConfig cfg;
  cfg.coreCount = cores;
  cfg.memory.l1d = CacheConfig{1024, 2, 32, 2};
  cfg.memory.l1i = CacheConfig{1024, 2, 32, 2};
  cfg.memory.modelICache = true;
  cfg.memory.classifyMisses = true;
  cfg.switchCycles = 400;
  return cfg;
}

TEST(RunLengthReplay, StressWorkloadNonPreemptive) {
  StressRig rig;
  const auto s1 = rig.addStream(0, 200);
  rig.addMulAdd(0, 16);
  rig.addMulAdd(16, 32);
  const auto rev = rig.addReversed();
  rig.workload.graph.addDependence(s1, rev);
  FcfsScheduler pe;
  FcfsScheduler rl;
  expectIdentical(rig.run(pe, stressConfig(2), ReplayMode::PerEvent),
                  rig.run(rl, stressConfig(2), ReplayMode::RunLength));
}

TEST(RunLengthReplay, StressWorkloadSmallQuantum) {
  // A tiny quantum forces mid-run and mid-iteration splits everywhere.
  for (const std::int64_t quantum : {7, 100, 1000}) {
    StressRig rig;
    rig.addStream(0, 200);
    rig.addMulAdd(0, 16);
    rig.addMulAdd(8, 24);  // overlapping rows: cross-process reuse
    rig.addReversed();
    RoundRobinScheduler pe(quantum);
    RoundRobinScheduler rl(quantum);
    expectIdentical(rig.run(pe, stressConfig(2), ReplayMode::PerEvent),
                    rig.run(rl, stressConfig(2), ReplayMode::RunLength));
  }
}

TEST(RunLengthReplay, QuantumScanKeepsMissClassificationIdentical) {
  // Regression: a quantum that splits a bulk chunk mid-iteration
  // (takeExtra > 0) must leave the classifier's shadow LRU in the exact
  // per-event rotation, or later capacity-vs-conflict decisions diverge
  // once interleaved processes partially evict the shadow's MRU block.
  // Scan a quantum range dense enough to hit many split phases.
  for (std::int64_t quantum = 20; quantum <= 2040; quantum += 101) {
    StressRig rig;
    rig.addMulAdd(0, 16);
    rig.addMulAdd(8, 24);
    rig.addMulAdd(16, 32);
    RoundRobinScheduler pe(quantum);
    RoundRobinScheduler rl(quantum);
    SCOPED_TRACE(quantum);
    expectIdentical(rig.run(pe, stressConfig(1), ReplayMode::PerEvent),
                    rig.run(rl, stressConfig(1), ReplayMode::RunLength));
  }
}

TEST(RunLengthReplay, FlushOnSwitch) {
  StressRig rig;
  rig.addStream(0, 256);
  rig.addMulAdd(0, 8);
  rig.addReversed();
  MpsocConfig cfg = stressConfig(1);
  cfg.flushOnSwitch = true;
  RoundRobinScheduler pe(500);
  RoundRobinScheduler rl(500);
  expectIdentical(rig.run(pe, cfg, ReplayMode::PerEvent),
                  rig.run(rl, cfg, ReplayMode::RunLength));
}

TEST(RunLengthReplay, InterleavedLayoutTransform) {
  // A re-laid-out array's addressing is only piecewise affine; runs must
  // be clipped at the half-page chunk boundaries the transform introduces.
  StressRig rig;
  rig.addStream(0, 256);
  rig.addMulAdd(0, 16);
  const MpsocConfig cfg = stressConfig(2);
  AddressSpace space(rig.workload.arrays);
  const std::int64_t page = cfg.memory.l1d.cachePageBytes();
  space.setTransform(rig.c, LayoutTransform::interleave(page, 0));
  space.setTransform(rig.a, LayoutTransform::interleave(page, page / 2));
  FcfsScheduler pe;
  FcfsScheduler rl;
  expectIdentical(rig.run(pe, cfg, ReplayMode::PerEvent, &space),
                  rig.run(rl, cfg, ReplayMode::RunLength, &space));
}

MpsocConfig contendedConfig(std::size_t cores) {
  MpsocConfig cfg = stressConfig(cores);
  PlatformConfig& platform = cfg.platform.emplace();
  platform.interconnect = InterconnectKind::Bus;
  SharedL2Config& l2 = platform.sharedL2.emplace();
  l2.sizeBytes = 4096;
  l2.assoc = 2;
  l2.lineBytes = 32;
  l2.bankCount = 4;
  platform.bus.maxOutstanding = 2;
  return cfg;
}

TEST(RunLengthReplay, ContendedHierarchyNonPreemptive) {
  // Bulk-committed steps are guaranteed L1 hits and never touch the
  // shared levels, so the replay modes must stay bit-identical even when
  // miss latency depends on the absolute cycle (shared L2 + bounded bus).
  StressRig rig;
  const auto s1 = rig.addStream(0, 200);
  rig.addMulAdd(0, 16);
  rig.addMulAdd(16, 32);
  const auto rev = rig.addReversed();
  rig.workload.graph.addDependence(s1, rev);
  FcfsScheduler pe;
  FcfsScheduler rl;
  expectIdentical(rig.run(pe, contendedConfig(2), ReplayMode::PerEvent),
                  rig.run(rl, contendedConfig(2), ReplayMode::RunLength));
}

TEST(RunLengthReplay, ContendedHierarchySmallQuantum) {
  for (const std::int64_t quantum : {7, 100, 1000}) {
    StressRig rig;
    rig.addStream(0, 200);
    rig.addMulAdd(0, 16);
    rig.addMulAdd(8, 24);
    rig.addReversed();
    RoundRobinScheduler pe(quantum);
    RoundRobinScheduler rl(quantum);
    SCOPED_TRACE(quantum);
    expectIdentical(rig.run(pe, contendedConfig(2), ReplayMode::PerEvent),
                    rig.run(rl, contendedConfig(2), ReplayMode::RunLength));
  }
}

TEST(RunLengthReplay, ContendedSuitePaperSchedulers) {
  // The contention acceptance gate: L2 + bounded bus enabled, every
  // paper scheduler, both replay modes bit-identical on a suite mix.
  const auto suite = standardSuite(AppParams{0.25});
  const Workload mix = concurrentScenario(suite, 3);
  for (const SchedulerKind kind : paperSchedulers()) {
    ExperimentConfig config;
    PlatformConfig& platform = config.mpsoc.platform.emplace();
    platform.interconnect = InterconnectKind::Bus;
    platform.sharedL2.emplace();
    config.mpsoc.memory.classifyMisses = true;
    config.sched.rrsQuantumCycles = 2'000;
    config.mpsoc.replayMode = ReplayMode::PerEvent;
    const ExperimentResult perEvent = runExperiment(mix, kind, config);
    config.mpsoc.replayMode = ReplayMode::RunLength;
    const ExperimentResult runLength = runExperiment(mix, kind, config);
    SCOPED_TRACE("scheduler " + perEvent.schedulerName);
    expectIdentical(perEvent.sim, runLength.sim);
    EXPECT_EQ(perEvent.energyMj, runLength.energyMj);
    EXPECT_TRUE(perEvent.sim.sharedL2Enabled);
    EXPECT_GT(perEvent.sim.l2Total.accesses, 0u);
  }
}

TEST(RunLengthReplay, StandardSuitePaperSchedulers) {
  // The acceptance gate: every paper scheduler (RS, RRS, LS, LSM — the
  // last including the Fig. 4/5 re-layout pipeline) must produce
  // bit-identical results in both replay modes on suite mixes.
  const auto suite = standardSuite(AppParams{0.5});
  for (const std::size_t t : {std::size_t{1}, std::size_t{3},
                              std::size_t{6}}) {
    const Workload mix = concurrentScenario(suite, t);
    for (const SchedulerKind kind : paperSchedulers()) {
      ExperimentConfig config;
      config.mpsoc.memory.classifyMisses = true;
      config.sched.rrsQuantumCycles = 2'000;  // stress mid-run splits
      config.mpsoc.replayMode = ReplayMode::PerEvent;
      const ExperimentResult perEvent = runExperiment(mix, kind, config);
      config.mpsoc.replayMode = ReplayMode::RunLength;
      const ExperimentResult runLength = runExperiment(mix, kind, config);
      SCOPED_TRACE("scheduler " + perEvent.schedulerName + " |T|=" +
                   std::to_string(t));
      expectIdentical(perEvent.sim, runLength.sim);
      EXPECT_EQ(perEvent.energyMj, runLength.energyMj);
      EXPECT_EQ(perEvent.relayoutedArrays, runLength.relayoutedArrays);
    }
  }
}

}  // namespace
}  // namespace laps
