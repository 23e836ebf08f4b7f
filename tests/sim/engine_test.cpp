#include "sim/engine.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "sched/basic.h"
#include "sched/factory.h"
#include "sched/locality.h"
#include "sim/energy.h"
#include "util/error.h"

namespace laps {
namespace {

/// A small platform: 2 cores, tiny caches, instruction modeling off so
/// cycle counts are easy to reason about.
MpsocConfig smallConfig(std::size_t cores = 2) {
  MpsocConfig cfg;
  cfg.coreCount = cores;
  cfg.memory.l1d = CacheConfig{1024, 2, 32, 2};
  cfg.memory.l1i = CacheConfig{1024, 2, 32, 2};
  cfg.memory.memLatencyCycles = 75;
  cfg.memory.modelICache = false;
  cfg.switchCycles = 400;
  return cfg;
}

struct Rig {
  Workload workload;
  ArrayId v;

  explicit Rig(std::int64_t arrayElems = 1 << 16) {
    v = workload.arrays.add("V", {arrayElems}, 4);
  }

  /// Sequential read process over [lo, hi) with 1 compute cycle per iter.
  ProcessId addStream(std::int64_t lo, std::int64_t hi, TaskId task = 0) {
    ProcessSpec p;
    p.task = task;
    p.name = "s" + std::to_string(workload.graph.processCount());
    p.nests.push_back(LoopNest{
        IterationSpace::box({{lo, hi}}),
        {ArrayAccess{v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        1});
    return workload.graph.addProcess(std::move(p));
  }

  SimResult run(SchedulerPolicy& policy, const MpsocConfig& cfg) {
    const AddressSpace space(workload.arrays);
    const auto fps = workload.footprints();
    const SharingMatrix sharing = SharingMatrix::compute(fps);
    MpsocSimulator sim(workload, space, sharing, policy, cfg);
    return sim.run();
  }
};

TEST(MpsocSimulator, SingleProcessExactCycleCount) {
  // 4 reads within one 32B line: miss, hit, hit, hit.
  Rig rig;
  rig.addStream(0, 4);
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(1));
  // switch(400) + (2+75+1) + 3*(2+1) = 400 + 78 + 9 = 487.
  EXPECT_EQ(r.makespanCycles, 487);
  EXPECT_EQ(r.dcacheTotal.accesses, 4u);
  EXPECT_EQ(r.dcacheTotal.misses, 1u);
  EXPECT_EQ(r.contextSwitches, 1u);
  EXPECT_EQ(r.preemptions, 0u);
  ASSERT_EQ(r.processes.size(), 1u);
  EXPECT_EQ(r.processes[0].firstStartCycle, 0);
  EXPECT_EQ(r.processes[0].completionCycle, 487);
  EXPECT_EQ(r.processes[0].segments, 1u);
  EXPECT_NEAR(r.seconds, 487.0 / 200e6, 1e-12);
}

TEST(MpsocSimulator, IndependentProcessesRunInParallel) {
  Rig rig;
  rig.addStream(0, 1000);
  rig.addStream(10000, 11000);
  FcfsScheduler policy;
  const SimResult two = rig.run(policy, smallConfig(2));
  const SimResult one = rig.run(policy, smallConfig(1));
  // Two cores should cut the makespan roughly in half.
  EXPECT_LT(two.makespanCycles, one.makespanCycles * 6 / 10);
  EXPECT_EQ(two.processes[0].lastCore != two.processes[1].lastCore, true);
}

TEST(MpsocSimulator, DependenceSerializesExecution) {
  Rig rig;
  const auto a = rig.addStream(0, 1000);
  const auto b = rig.addStream(10000, 11000);
  rig.workload.graph.addDependence(a, b);
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(2));
  EXPECT_GE(r.processes[b].firstStartCycle, r.processes[a].completionCycle);
}

TEST(MpsocSimulator, DiamondDependences) {
  Rig rig;
  const auto a = rig.addStream(0, 500);
  const auto b = rig.addStream(1000, 1500);
  const auto c = rig.addStream(2000, 2500);
  const auto d = rig.addStream(3000, 3500);
  rig.workload.graph.addDependence(a, b);
  rig.workload.graph.addDependence(a, c);
  rig.workload.graph.addDependence(b, d);
  rig.workload.graph.addDependence(c, d);
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(2));
  EXPECT_GE(r.processes[b].firstStartCycle, r.processes[a].completionCycle);
  EXPECT_GE(r.processes[c].firstStartCycle, r.processes[a].completionCycle);
  EXPECT_GE(r.processes[d].firstStartCycle,
            std::max(r.processes[b].completionCycle,
                     r.processes[c].completionCycle));
  // b and c overlap on the two cores.
  EXPECT_LT(std::max(r.processes[b].firstStartCycle,
                     r.processes[c].firstStartCycle),
            std::min(r.processes[b].completionCycle,
                     r.processes[c].completionCycle));
}

TEST(MpsocSimulator, RoundRobinPreemptsAndCompletes) {
  Rig rig;
  rig.addStream(0, 5000);
  rig.addStream(10000, 15000);
  rig.addStream(20000, 25000);
  RoundRobinScheduler policy(2000);  // quantum far below process length
  const SimResult r = rig.run(policy, smallConfig(1));
  EXPECT_GT(r.preemptions, 0u);
  for (const auto& p : r.processes) {
    EXPECT_GE(p.completionCycle, 0) << "process " << p.id;
    EXPECT_GT(p.segments, 1u);
  }
  // Preemptions imply extra context switches over the 3 initial loads.
  EXPECT_GT(r.contextSwitches, 3u);
}

TEST(MpsocSimulator, SwitchOverheadDoesNotShrinkQuantum) {
  // One process of 100 pure-compute steps at 10 cycles each, quantum 100:
  // every segment must cover exactly 10 steps regardless of the 400-cycle
  // dispatch overhead of the first segment (the regression was seeding
  // the quantum comparison with switchCycles, truncating that segment).
  Rig rig;
  ProcessSpec p;
  p.name = "compute";
  p.nests.push_back(LoopNest{IterationSpace::box({{0, 100}}), {}, 10});
  rig.workload.graph.addProcess(std::move(p));
  RoundRobinScheduler policy(100);
  const SimResult r = rig.run(policy, smallConfig(1));
  EXPECT_EQ(r.processes[0].segments, 10u);  // 100 steps / 10 per quantum
  EXPECT_EQ(r.preemptions, 9u);
  EXPECT_EQ(r.contextSwitches, 1u);  // resuming the same process is free
  EXPECT_EQ(r.makespanCycles, 1000 + 400);
}

TEST(MpsocSimulator, SegmentCountInvariantUnderSwitchCost) {
  // The quantum governs work cycles only, so the preemption schedule must
  // not depend on the context-switch cost.
  Rig rig;
  rig.addStream(0, 3000);
  rig.addStream(10000, 13000);
  MpsocConfig cheap = smallConfig(1);
  cheap.switchCycles = 0;
  MpsocConfig dear = smallConfig(1);
  dear.switchCycles = 3'900;
  RoundRobinScheduler p1(2000);
  RoundRobinScheduler p2(2000);
  const SimResult a = rig.run(p1, cheap);
  const SimResult b = rig.run(p2, dear);
  EXPECT_GT(a.preemptions, 0u);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
  EXPECT_EQ(b.makespanCycles,
            a.makespanCycles +
                static_cast<std::int64_t>(b.contextSwitches) * 3'900);
}

TEST(MpsocSimulator, SwitchOverheadExcludedFromUtilization) {
  // Single process on one core: busy + switch overhead == makespan, and
  // utilization counts only the busy (useful) share.
  Rig rig;
  rig.addStream(0, 4);
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(1));
  EXPECT_EQ(r.switchOverheadCycles, 400u);
  EXPECT_EQ(r.coreBusyCycles[0], 87);  // (2+75+1) + 3*(2+1)
  EXPECT_EQ(r.makespanCycles, 487);
  EXPECT_NEAR(r.utilization(), 87.0 / 487.0, 1e-12);
}

TEST(MpsocSimulator, QuantumLargerThanProcessMeansNoPreemption) {
  Rig rig;
  rig.addStream(0, 100);
  RoundRobinScheduler policy(1 << 30);
  const SimResult r = rig.run(policy, smallConfig(1));
  EXPECT_EQ(r.preemptions, 0u);
  EXPECT_EQ(r.processes[0].segments, 1u);
}

TEST(MpsocSimulator, CacheReuseAcrossProcessesOnSameCore) {
  // Two processes reading the same 256 elements (1 KB, fits the cache),
  // serialized on one core: the second must hit everywhere.
  Rig rig;
  const auto a = rig.addStream(0, 256);
  const auto b = rig.addStream(0, 256);
  rig.workload.graph.addDependence(a, b);  // force order
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(1));
  // 256 elements * 4B = 1024 B = 32 lines: only the first process misses.
  EXPECT_EQ(r.dcacheTotal.misses, 32u);
  EXPECT_EQ(r.dcacheTotal.accesses, 512u);
}

TEST(MpsocSimulator, FlushOnSwitchDestroysReuse) {
  Rig rig;
  const auto a = rig.addStream(0, 256);
  const auto b = rig.addStream(0, 256);
  rig.workload.graph.addDependence(a, b);
  FcfsScheduler policy;
  MpsocConfig cfg = smallConfig(1);
  cfg.flushOnSwitch = true;
  const SimResult r = rig.run(policy, cfg);
  EXPECT_EQ(r.dcacheTotal.misses, 64u);  // both processes miss cold
}

TEST(MpsocSimulator, DeterministicAcrossRuns) {
  Rig rig;
  for (int i = 0; i < 6; ++i) {
    rig.addStream(i * 3000, i * 3000 + 2000);
  }
  RandomScheduler p1(42);
  RandomScheduler p2(42);
  const SimResult a = rig.run(p1, smallConfig(3));
  const SimResult b = rig.run(p2, smallConfig(3));
  EXPECT_EQ(a.makespanCycles, b.makespanCycles);
  EXPECT_EQ(a.dcacheTotal.misses, b.dcacheTotal.misses);
  EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

TEST(MpsocSimulator, LocalitySchedulerIntegration) {
  // 8 overlapping streams; LS should serialize sharers on cores.
  Rig rig;
  for (int i = 0; i < 8; ++i) {
    rig.addStream(i * 500, i * 500 + 1000);  // neighbors overlap by 500
  }
  LocalityScheduler ls;
  RandomScheduler rs(123);
  const MpsocConfig cfg = smallConfig(2);
  const SimResult lsResult = rig.run(ls, cfg);
  const SimResult rsResult = rig.run(rs, cfg);
  EXPECT_LE(lsResult.dcacheTotal.misses, rsResult.dcacheTotal.misses);
  for (const auto& p : lsResult.processes) {
    EXPECT_GE(p.completionCycle, 0);
  }
}

TEST(MpsocSimulator, UtilizationAndIdleAccounting) {
  Rig rig;
  rig.addStream(0, 4000);  // only one process on two cores
  FcfsScheduler policy;
  const SimResult r = rig.run(policy, smallConfig(2));
  // Core 1 never works: utilization ~0.5.
  EXPECT_NEAR(r.utilization(), 0.5, 0.01);
  EXPECT_EQ(r.coreBusyCycles[1], 0);
  EXPECT_EQ(r.coreIdleCycles[1], r.makespanCycles);
  EXPECT_EQ(r.coreIdleCycles[0], 0);
}

TEST(MpsocSimulator, InstructionCacheWarmupCosts) {
  Rig rig;
  rig.addStream(0, 64);
  FcfsScheduler policy;
  MpsocConfig off = smallConfig(1);
  MpsocConfig on = smallConfig(1);
  on.memory.modelICache = true;
  const SimResult withoutI = rig.run(policy, off);
  const SimResult withI = rig.run(policy, on);
  // I-cache misses add latency; once warm, fetch hits are free.
  EXPECT_GT(withI.makespanCycles, withoutI.makespanCycles);
  EXPECT_GT(withI.icacheTotal.accesses, 0u);
  EXPECT_LE(withI.icacheTotal.misses, 4u);  // tiny loop body
}

TEST(MpsocSimulator, EnergyModelTracksMisses) {
  Rig rig;
  const auto a = rig.addStream(0, 256);
  const auto b = rig.addStream(0, 256);
  rig.workload.graph.addDependence(a, b);
  FcfsScheduler policy;
  MpsocConfig cfg = smallConfig(1);
  const SimResult reuse = rig.run(policy, cfg);
  cfg.flushOnSwitch = true;
  const SimResult cold = rig.run(policy, cfg);
  const EnergyModel energy;
  EXPECT_LT(energy.totalMj(reuse), energy.totalMj(cold));
}

TEST(MpsocSimulator, MissClassificationPlumbed) {
  Rig rig;
  rig.addStream(0, 256);
  FcfsScheduler policy;
  MpsocConfig cfg = smallConfig(1);
  cfg.memory.classifyMisses = true;
  const AddressSpace space(rig.workload.arrays);
  const auto fps = rig.workload.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(fps);
  MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
  const SimResult r = sim.run();
  EXPECT_EQ(r.dataMisses.total(), r.dcacheTotal.misses);
  EXPECT_EQ(r.dataMisses.compulsory, r.dcacheTotal.misses);  // pure stream
}

/// A policy that never schedules anything: the engine must detect the
/// stranded work instead of hanging.
class BrokenPolicy final : public SchedulerPolicy {
 public:
  void reset(const SchedContext&) override {}
  void onReady(ProcessId) override {}
  std::optional<ProcessId> pickNext(std::size_t, std::optional<ProcessId>) override {
    return std::nullopt;
  }
  [[nodiscard]] std::string name() const override { return "broken"; }
};

TEST(MpsocSimulator, DeadlockDetected) {
  Rig rig;
  rig.addStream(0, 10);
  BrokenPolicy policy;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing = SharingMatrix::compute(rig.workload.footprints());
  MpsocSimulator sim(rig.workload, space, sharing, policy, smallConfig(1));
  EXPECT_THROW((void)sim.run(), Error);
}

/// A policy that schedules a process whose dependences are unmet.
class EagerPolicy final : public SchedulerPolicy {
 public:
  void reset(const SchedContext& ctx) override { n_ = ctx.graph->processCount(); }
  void onReady(ProcessId) override {}
  std::optional<ProcessId> pickNext(std::size_t,
                                    std::optional<ProcessId>) override {
    if (next_ >= n_) return std::nullopt;
    return static_cast<ProcessId>(next_++);
  }
  [[nodiscard]] std::string name() const override { return "eager"; }

 private:
  std::size_t n_ = 0;
  std::size_t next_ = 1;  // starts with process 1, skipping its dependence
};

TEST(MpsocSimulator, IneligiblePickRejected) {
  Rig rig;
  const auto a = rig.addStream(0, 10);
  const auto b = rig.addStream(100, 110);
  rig.workload.graph.addDependence(a, b);
  EagerPolicy policy;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing = SharingMatrix::compute(rig.workload.footprints());
  MpsocSimulator sim(rig.workload, space, sharing, policy, smallConfig(1));
  EXPECT_THROW((void)sim.run(), Error);
}

TEST(MpsocSimulator, EmptyWorkloadCompletesAtZero) {
  Workload workload;
  workload.arrays.add("V", {16}, 4);
  FcfsScheduler policy;
  const AddressSpace space(workload.arrays);
  const SharingMatrix sharing = SharingMatrix::inactive(0);
  MpsocSimulator sim(workload, space, sharing, policy, smallConfig(2));
  const SimResult r = sim.run();
  EXPECT_EQ(r.makespanCycles, 0);
  EXPECT_EQ(r.contextSwitches, 0u);
}

TEST(MpsocSimulator, SharedL2StatsFlowIntoTheResult) {
  Rig rig;
  rig.addStream(0, 4096);
  rig.addStream(4096, 8192);
  FcfsScheduler policy;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing =
      SharingMatrix::compute(rig.workload.footprints());
  MpsocConfig cfg = smallConfig(2);
  PlatformConfig& platform = cfg.platform.emplace();
  platform.interconnect = InterconnectKind::Bus;
  platform.sharedL2.emplace();
  MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
  const SimResult r = sim.run();
  EXPECT_TRUE(r.sharedL2Enabled);
  // Every L1 miss goes through the L2; every L2 miss crosses the bus.
  EXPECT_EQ(r.l2Total.accesses, r.dcacheTotal.misses);
  EXPECT_GT(r.l2Total.accesses, 0u);
  EXPECT_GE(r.busTransactions, r.l2Total.misses);
}

TEST(MpsocSimulator, ContentionIsDeterministic) {
  const auto run = [] {
    Rig rig;
    for (int i = 0; i < 6; ++i) rig.addStream(i * 2048, (i + 1) * 2048);
    FcfsScheduler policy;
    const AddressSpace space(rig.workload.arrays);
    const SharingMatrix sharing =
        SharingMatrix::compute(rig.workload.footprints());
    MpsocConfig cfg = smallConfig(3);
    PlatformConfig& platform = cfg.platform.emplace();
    platform.interconnect = InterconnectKind::Bus;
    platform.sharedL2.emplace();
    MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
    return sim.run();
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_EQ(a.makespanCycles, b.makespanCycles);
  EXPECT_EQ(a.busWaitCycles, b.busWaitCycles);
  EXPECT_EQ(a.l2BankWaitCycles, b.l2BankWaitCycles);
}

TEST(MpsocSimulator, ABoundedBusStretchesTheMakespan) {
  // Same workload, same L1 behavior: replacing the fixed-latency memory
  // with a saturated 1-slot bus can only slow things down.
  const auto makespan = [](bool bounded) {
    Rig rig;
    for (int i = 0; i < 4; ++i) rig.addStream(i * 4096, (i + 1) * 4096);
    FcfsScheduler policy;
    const AddressSpace space(rig.workload.arrays);
    const SharingMatrix sharing =
        SharingMatrix::compute(rig.workload.footprints());
    MpsocConfig cfg = smallConfig(4);
    if (bounded) {
      PlatformConfig& platform = cfg.platform.emplace();
      platform.interconnect = InterconnectKind::Bus;
      platform.bus.maxOutstanding = 1;
      platform.bus.latencyCycles = 75;
      platform.bus.widthBytes = 8;
    }
    MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
    return sim.run().makespanCycles;
  };
  EXPECT_GT(makespan(true), makespan(false));
}

TEST(MpsocSimulator, ContentionAwarePolicyRunsEndToEnd) {
  const auto suite = standardSuite(AppParams{0.25});
  const Workload mix = concurrentScenario(suite, 2);
  ExperimentConfig config;
  PlatformConfig& platform = config.mpsoc.platform.emplace();
  platform.interconnect = InterconnectKind::Bus;
  platform.sharedL2.emplace();
  const auto r = runExperiment(mix, SchedulerKind::L2ContentionAware, config);
  EXPECT_EQ(r.schedulerName, "CALS");
  EXPECT_EQ(r.sim.processes.size(), mix.graph.processCount());
  for (const auto& p : r.sim.processes) {
    EXPECT_GE(p.completionCycle, 0) << "process " << p.id;
  }
  EXPECT_TRUE(r.sim.sharedL2Enabled);
}

TEST(MpsocSimulator, ConfigValidation) {
  Rig rig;
  rig.addStream(0, 10);
  FcfsScheduler policy;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing = SharingMatrix::compute(rig.workload.footprints());
  MpsocConfig zeroCores = smallConfig(1);
  zeroCores.coreCount = 0;
  EXPECT_THROW(MpsocSimulator(rig.workload, space, sharing, policy, zeroCores),
               Error);
  MpsocConfig badCache = smallConfig(1);
  badCache.memory.l1d.lineBytes = 33;
  EXPECT_THROW(MpsocSimulator(rig.workload, space, sharing, policy, badCache),
               Error);
  const SharingMatrix wrongSize = SharingMatrix::inactive(5);
  EXPECT_THROW(
      MpsocSimulator(rig.workload, space, wrongSize, policy, smallConfig(1)),
      Error);
}

TEST(MpsocSimulator, RejectsCodeSegmentReachingTheData) {
  // Nest n of task t fetches from kCodeSegmentBase + (16t + n) * 4096;
  // the code of tasks [0, 4032) ends exactly at the default data base.
  FcfsScheduler policy;
  const auto construct = [&](TaskId task, AddressSpaceOptions options) {
    Rig rig;
    rig.addStream(0, 10, task);
    const AddressSpace space(rig.workload.arrays, options);
    const SharingMatrix sharing =
        SharingMatrix::compute(rig.workload.footprints());
    MpsocSimulator sim(rig.workload, space, sharing, policy, smallConfig(1));
  };
  EXPECT_EQ(codeSegmentEnd(4032), AddressSpaceOptions{}.dataBase);
  EXPECT_NO_THROW(construct(4031, {}));
  EXPECT_THROW(construct(4032, {}), Error);
  AddressSpaceOptions low;
  low.dataBase = codeSegmentEnd(1) - 4096;
  EXPECT_THROW(construct(0, low), Error);
  low.dataBase = codeSegmentEnd(1);
  EXPECT_NO_THROW(construct(0, low));
}

}  // namespace
}  // namespace laps
