/// \file engine_golden_test.cpp
/// \brief Frozen whole-result digests of the event loop. Each run's full
/// SimResult folds into one FNV-1a value (sim_digest.h) that is compared
/// with a constant recorded before the loop was last restructured, so
/// any change to the order in which arrivals, retries, recoveries, fault
/// injections and segment ends are handled shows up here, in ctest,
/// without the bench CSV baselines.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/laps.h"
#include "sim_digest.h"

namespace laps {
namespace {

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value << "ULL";
  return out.str();
}

ExperimentConfig perProcessConfig(std::int64_t meanInterArrival) {
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = meanInterArrival;
  config.mpsoc.arrivals->granularity = ArrivalGranularity::PerProcess;
  config.mpsoc.arrivals->distribution = ArrivalDistribution::Exponential;
  return config;
}

/// One failure-storm round: transient outages, permanent failures,
/// crashes with a tight retry budget and jittered backoff, under a
/// lifetime, so every event source of the loop fires and interleaves.
FaultPlan stormPlan() {
  FaultPlan plan;
  plan.seed = 2026;
  plan.meanCoreFailureCycles = 30'000;
  plan.meanCoreOutageCycles = 8'000;
  plan.meanCrashCycles = 5'000;
  plan.outageDownCycles = 2'500;
  plan.retry.maxAttempts = 2;
  plan.retry.backoffBaseCycles = 700;
  plan.retry.backoffJitterCycles = 256;
  return plan;
}

struct StormGolden {
  SchedulerKind kind;
  AdmissionKind admission;
  std::uint64_t digest;
};

// Rows with equal digests are policies that make identical decisions on
// this dependence-free request stream.
constexpr StormGolden kStormGoldens[] = {
    {SchedulerKind::Random, AdmissionKind::AdmitAll, 0x1ae9b3ab474b47ceULL},
    {SchedulerKind::Random, AdmissionKind::QueueCap, 0xb78af2fd6806a029ULL},
    {SchedulerKind::RoundRobin, AdmissionKind::AdmitAll, 0xe83c1c05bdb82c6cULL},
    {SchedulerKind::RoundRobin, AdmissionKind::QueueCap, 0x6e0c50a6b331cc66ULL},
    {SchedulerKind::Locality, AdmissionKind::AdmitAll, 0xefb5fe64fa614722ULL},
    {SchedulerKind::Locality, AdmissionKind::QueueCap, 0x92847c846b55cde8ULL},
    {SchedulerKind::LocalityMapping, AdmissionKind::AdmitAll,
     0x4354b680f250766ULL},
    {SchedulerKind::LocalityMapping, AdmissionKind::QueueCap,
     0x439cae083f37fcf3ULL},
    {SchedulerKind::Fcfs, AdmissionKind::AdmitAll, 0x3bb78dec6ce7401eULL},
    {SchedulerKind::Fcfs, AdmissionKind::QueueCap, 0x7619d922ec1172eULL},
    {SchedulerKind::Sjf, AdmissionKind::AdmitAll, 0xee82d9b1a2556c6bULL},
    {SchedulerKind::Sjf, AdmissionKind::QueueCap, 0x92847c846b55cde8ULL},
    {SchedulerKind::CriticalPath, AdmissionKind::AdmitAll,
     0xee82d9b1a2556c6bULL},
    {SchedulerKind::CriticalPath, AdmissionKind::QueueCap,
     0x92847c846b55cde8ULL},
    {SchedulerKind::DynamicLocality, AdmissionKind::AdmitAll,
     0x3bb78dec6ce7401eULL},
    {SchedulerKind::DynamicLocality, AdmissionKind::QueueCap,
     0x7619d922ec1172eULL},
    {SchedulerKind::L2ContentionAware, AdmissionKind::AdmitAll,
     0xcebc8499bce55d3aULL},
    {SchedulerKind::L2ContentionAware, AdmissionKind::QueueCap,
     0x32059efc5e23d442ULL},
    {SchedulerKind::OnlineLocality, AdmissionKind::AdmitAll,
     0x49ac1d6dc167ed1aULL},
    {SchedulerKind::OnlineLocality, AdmissionKind::QueueCap,
     0xe5af7c1940f8b3abULL},
};
static_assert(std::size(kStormGoldens) == 2 * kAllSchedulerKinds.size());

TEST(EngineGolden, FailureStormEveryPolicyAndAdmission) {
  ServiceWorkloadParams params;
  params.requestCount = 48;
  const Workload service = makeServiceWorkload(params);
  FaultStats totals;
  std::uint64_t retired = 0;
  for (const StormGolden& golden : kStormGoldens) {
    auto config = perProcessConfig(1'500);
    config.mpsoc.arrivals->processLifetimeCycles = 60'000;
    config.mpsoc.admission.kind = golden.admission;
    config.mpsoc.admission.queueCap = 6;
    config.mpsoc.faults = stormPlan();
    const SimResult sim = runExperiment(service, golden.kind, config).sim;
    EXPECT_EQ(hex(simDigest(sim)), hex(golden.digest))
        << to_string(golden.kind) << "/" << to_string(golden.admission);
    totals.coreOutages += sim.faults.coreOutages;
    totals.coreRecoveries += sim.faults.coreRecoveries;
    totals.coreFailures += sim.faults.coreFailures;
    totals.processCrashes += sim.faults.processCrashes;
    totals.retriesScheduled += sim.faults.retriesScheduled;
    totals.failedProcesses += sim.faults.failedProcesses;
    retired += sim.retiredProcesses;
  }
  // The round really is a storm: every fault source and the lifetime
  // contributed events somewhere in the table.
  EXPECT_GT(totals.coreOutages, 0u);
  EXPECT_GT(totals.coreRecoveries, 0u);
  EXPECT_GT(totals.coreFailures, 0u);
  EXPECT_GT(totals.processCrashes, 0u);
  EXPECT_GT(totals.retriesScheduled, 0u);
  EXPECT_GT(totals.failedProcesses, 0u);
  EXPECT_GT(retired, 0u);
}

TEST(EngineGolden, PerProcessOpenRun) {
  const Workload service = makeServiceWorkload();
  const SimResult sim =
      runExperiment(service, SchedulerKind::OnlineLocality,
                    perProcessConfig(2'000))
          .sim;
  EXPECT_EQ(hex(simDigest(sim)), hex(0x47ab81c31933b71bULL));
}

TEST(EngineGolden, ClosedPaperRun) {
  AppParams params;
  params.scale = 0.5;
  const Workload workload = concurrentScenario(standardSuite(params), 3);
  const SimResult sim =
      runExperiment(workload, SchedulerKind::LocalityMapping).sim;
  EXPECT_EQ(hex(simDigest(sim)), hex(0x9386cffb2174364bULL));
}

/// The replay's work split on the same closed LSM mix, whose nests
/// include line-jumping (transposed) streams: data steps committed per
/// event and in bulk, and the jumper chunks with their fallbacks. These
/// are simulator work counts, outside simDigest; pinning them makes a
/// regression in the replay's path choice fail here, on any runner,
/// while every simulated figure stays byte-identical.
TEST(EngineGolden, ReplayPathCountsOnClosedLsmMix) {
  AppParams params;
  params.scale = 0.5;
  const Workload workload = concurrentScenario(standardSuite(params), 3);
  const SimResult sim =
      runExperiment(workload, SchedulerKind::LocalityMapping).sim;
  const ReplayPathStats& paths = sim.replayPath;
  EXPECT_EQ(paths.perEventSteps + paths.bulkSteps, sim.dataReferences());
  EXPECT_EQ(paths.perEventSteps, 146'496u);
  EXPECT_EQ(paths.bulkSteps, 251'744u);
  EXPECT_EQ(paths.jumperChunks, 17'693u);
  EXPECT_EQ(paths.jumperFallbacks, 224u);
}

/// Tie storms: every gap of one fault class is exactly one cycle (a
/// geometric gap of mean 1), so events of different sources share
/// cycles all the time and the equal-cycle drain order decides the
/// result. Swapping any two adjacent event sources in the engine
/// changes at least one of the two digests below.
ExperimentConfig tieStormConfig(std::int64_t meanInterArrival) {
  ExperimentConfig config = perProcessConfig(meanInterArrival);
  config.mpsoc.arrivals->distribution = ArrivalDistribution::Uniform;
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 7;
  config.mpsoc.faults->retry.backoffBaseCycles = 1;
  config.mpsoc.faults->retry.backoffCapCycles = 4;
  return config;
}

TEST(EngineGolden, OutageStormPinsRecoveryInjectionAndCoreOrder) {
  // An outage is injected every cycle, so injections tie with every
  // segment end, every recovery and every retry.
  ServiceWorkloadParams params;
  params.requestCount = 48;
  const Workload service = makeServiceWorkload(params);
  auto config = tieStormConfig(1);
  config.mpsoc.faults->meanCoreOutageCycles = 1;
  config.mpsoc.faults->outageDownCycles = 3;
  config.mpsoc.faults->meanCrashCycles = 2'000;
  config.mpsoc.faults->retry.maxAttempts = 16;
  const SimResult sim =
      runExperiment(service, SchedulerKind::DynamicLocality, config).sim;
  EXPECT_GT(sim.faults.coreRecoveries, 0u);
  EXPECT_GT(sim.faults.retriesScheduled, 0u);
  EXPECT_EQ(hex(simDigest(sim)), hex(0x56b29f28f6515896ULL));
}

TEST(EngineGolden, CrashStormPinsArrivalsBeforeRetries) {
  // A crash is injected every cycle, so every segment crashes, and its
  // retry (1-7 cycles of backoff) re-arrives while fresh requests still
  // arrive every 1-7 cycles. Under a queue cap, an arrival and a retry
  // at one cycle compete for the last slot in the declared order.
  ServiceWorkloadParams params;
  params.requestCount = 512;
  params.valueElems = 8;
  const Workload service = makeServiceWorkload(params);
  auto config = tieStormConfig(4);
  config.mpsoc.switchCycles = 0;
  config.mpsoc.admission.kind = AdmissionKind::QueueCap;
  config.mpsoc.admission.queueCap = 6;
  config.mpsoc.faults->meanCrashCycles = 1;
  config.mpsoc.faults->migrationPenaltyCycles = 0;
  config.mpsoc.faults->retry.backoffJitterCycles = 3;
  const SimResult sim =
      runExperiment(service, SchedulerKind::DynamicLocality, config).sim;
  EXPECT_GT(sim.faults.retriesShed, 0u);
  EXPECT_EQ(hex(simDigest(sim)), hex(0xf8936229158a2f7aULL));
}

/// A 4x4 directory mesh whose link bookings reach far past a link
/// calendar's ring (LinkCalendar::kSlots words of 64 cycles, 8,192
/// cycles): one process computes 10,000 cycles between accesses, each
/// to a fresh line, and DLS runs it to completion in one segment, so
/// its transfers book links up to ~400k cycles past the retire horizon
/// while 31 streaming processes book the near words those far ones
/// share ring slots with. Frozen on the interval-calendar links.
TEST(EngineGolden, MeshRunBooksLinksPastTheCalendarRing) {
  Workload workload;
  const ArrayId a = workload.arrays.add("A", {1 << 16}, 4);
  auto addProcess = [&](std::int64_t lo, std::int64_t iterations,
                        std::int64_t stride, std::int64_t compute) {
    ProcessSpec p;
    p.name = "p" + std::to_string(workload.graph.processCount());
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, iterations}}),
        {ArrayAccess{a, AffineMap{AffineExpr({stride}, lo)},
                     AccessKind::Read}},
        compute});
    workload.graph.addProcess(std::move(p));
  };
  addProcess(0, 40, 8, 10'000);  // one 32 B line per access
  for (std::int64_t s = 0; s < 31; ++s) {
    addProcess(512 + s * 2048, 2048, 1, 1);
  }
  ExperimentConfig config;
  config.mpsoc.coreCount = 16;
  PlatformConfig& platform = config.mpsoc.platform.emplace();
  platform.interconnect = InterconnectKind::Mesh;
  platform.coherence = CoherenceKind::Directory;
  platform.sharedL2.emplace();
  platform.noc.hopCycles = 2;
  platform.noc.linkWidthBytes = 8;  // 4 cycles per 32 B line
  const SimResult sim =
      runExperiment(workload, SchedulerKind::DynamicLocality, config).sim;
  EXPECT_GT(sim.makespanCycles, 400'000);
  EXPECT_GT(sim.nocLinkWaitCycles, 0u);
  EXPECT_EQ(hex(simDigest(sim)), hex(0xa82000bcbd1ceeb6ULL));
}

}  // namespace
}  // namespace laps
