/// \file fault_test.cpp
/// \brief Fault injection and fault-tolerant scheduling (docs §13):
/// FaultPlan validation, seeded timelines, retry/backoff arithmetic,
/// engine crash/outage/failure semantics, the failure-storm property
/// test, and the liveness of the compiled-in fault audit checkers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/laps.h"
#include "sim_digest.h"
#include "util/audit.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Restores the default analysis thread count on scope exit.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

ExperimentConfig serviceConfig(std::int64_t meanInterArrival) {
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = meanInterArrival;
  config.mpsoc.arrivals->granularity = ArrivalGranularity::PerProcess;
  config.mpsoc.arrivals->distribution = ArrivalDistribution::Exponential;
  return config;
}

TEST(FaultPlan, ValidatesParameters) {
  FaultPlan plan;
  plan.validate();  // all-disabled default is valid (and inert)
  EXPECT_FALSE(plan.enabled());

  plan.meanCrashCycles = -1;
  EXPECT_THROW(plan.validate(), Error);
  plan.meanCrashCycles = 0;

  plan.meanCoreOutageCycles = 1000;
  plan.outageDownCycles = 0;  // outages enabled need a positive duration
  EXPECT_THROW(plan.validate(), Error);
  plan.outageDownCycles = 500;
  plan.validate();
  EXPECT_TRUE(plan.enabled());

  plan.migrationPenaltyCycles = -1;
  EXPECT_THROW(plan.validate(), Error);
  plan.migrationPenaltyCycles = 0;

  plan.retry.backoffBaseCycles = 0;
  EXPECT_THROW(plan.validate(), Error);
  plan.retry.backoffBaseCycles = 4000;
  plan.retry.backoffCapCycles = 3999;  // cap below base
  EXPECT_THROW(plan.validate(), Error);
  plan.retry.backoffCapCycles = 4000;
  plan.retry.backoffJitterCycles = -1;
  EXPECT_THROW(plan.validate(), Error);
  plan.retry.backoffJitterCycles = 0;
  plan.validate();
}

TEST(RetryPolicy, BackoffDoublesUpToTheCap) {
  RetryPolicy policy;
  policy.backoffBaseCycles = 1000;
  policy.backoffCapCycles = 6000;
  policy.backoffJitterCycles = 0;
  Rng rng(1);
  EXPECT_EQ(retryBackoffCycles(policy, 1, rng), 1000);
  EXPECT_EQ(retryBackoffCycles(policy, 2, rng), 2000);
  EXPECT_EQ(retryBackoffCycles(policy, 3, rng), 4000);
  EXPECT_EQ(retryBackoffCycles(policy, 4, rng), 6000);   // capped
  EXPECT_EQ(retryBackoffCycles(policy, 30, rng), 6000);  // stays capped
  EXPECT_THROW((void)retryBackoffCycles(policy, 0, rng), Error);  // 1-based
  // Jitter-free backoff consumed no randomness: the stream is untouched.
  Rng fresh(1);
  EXPECT_EQ(rng(), fresh());
}

TEST(RetryPolicy, JitterIsBoundedAndSeeded) {
  RetryPolicy policy;
  policy.backoffBaseCycles = 1000;
  policy.backoffCapCycles = 1000;
  policy.backoffJitterCycles = 64;
  Rng a(7);
  Rng b(7);
  for (int k = 0; k < 32; ++k) {
    const std::int64_t delay = retryBackoffCycles(policy, 1, a);
    EXPECT_GE(delay, 1000);
    EXPECT_LE(delay, 1064);
    EXPECT_EQ(delay, retryBackoffCycles(policy, 1, b));  // same stream
  }
}

TEST(FaultStream, SubStreamSeedsAreDistinctAndStable) {
  const FaultStream streams[] = {
      FaultStream::FailureGaps, FaultStream::OutageGaps,
      FaultStream::CrashGaps, FaultStream::Targets, FaultStream::RetryJitter};
  std::vector<std::uint64_t> seeds;
  for (const FaultStream s : streams) {
    seeds.push_back(faultStreamSeed(99, s));
    EXPECT_EQ(seeds.back(), faultStreamSeed(99, s));  // pure
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(faultStreamSeed(99, FaultStream::Targets),
            faultStreamSeed(100, FaultStream::Targets));
}

TEST(FaultTimeline, RequiresAnEnabledPlan) {
  EXPECT_THROW(FaultTimeline{FaultPlan{}}, Error);
}

TEST(FaultTimeline, MergesClassStreamsWithoutCrossTalk) {
  // The documented independence: enabling one class never shifts the
  // draws of another. The merged timeline's per-class subsequence must
  // equal the solo-class timeline of the same plan seed.
  FaultPlan merged;
  merged.seed = 5;
  merged.meanCoreFailureCycles = 40'000;
  merged.meanCrashCycles = 15'000;
  FaultPlan crashOnly;
  crashOnly.seed = 5;
  crashOnly.meanCrashCycles = 15'000;

  FaultTimeline both(merged);
  FaultTimeline solo(crashOnly);
  std::int64_t last = 0;
  int crashesSeen = 0;
  for (int k = 0; k < 64; ++k) {
    const FaultEvent event = both.pop();
    EXPECT_GE(event.cycle, last);  // nondecreasing merge
    last = event.cycle;
    if (event.kind == FaultClass::ProcessCrash) {
      const FaultEvent ref = solo.pop();
      EXPECT_EQ(event.cycle, ref.cycle);
      ++crashesSeen;
    }
  }
  EXPECT_GT(crashesSeen, 16);  // the 15k stream dominates the merge

  // And the whole merged sequence is reproducible.
  FaultTimeline again(merged);
  FaultTimeline reference(merged);
  for (int k = 0; k < 32; ++k) {
    const FaultEvent a = again.pop();
    const FaultEvent b = reference.pop();
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
  }
}

TEST(FaultInjection, RequiresAnOpenWorkload) {
  const Application app = makeShape();
  ExperimentConfig config;  // closed: no arrival schedule
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->meanCrashCycles = 10'000;
  EXPECT_THROW(runExperiment(app.workload, SchedulerKind::Fcfs, config),
               Error);
}

TEST(FaultInjection, DisabledPlanIsBitIdenticalToFaultFree) {
  // The bit-identity contract behind every committed baseline: a
  // FaultPlan with every rate zero must leave the engine on the exact
  // fault-free code path.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  const auto plain = runExperiment(service, SchedulerKind::DynamicLocality,
                                   config);
  config.mpsoc.faults.emplace();  // configured, every mean zero
  const auto inert = runExperiment(service, SchedulerKind::DynamicLocality,
                                   config);
  EXPECT_EQ(plain.sim.makespanCycles, inert.sim.makespanCycles);
  EXPECT_EQ(plain.sim.dcacheTotal.misses, inert.sim.dcacheTotal.misses);
  EXPECT_EQ(plain.sim.contextSwitches, inert.sim.contextSwitches);
  EXPECT_EQ(plain.sim.faults.processCrashes, 0u);
  ASSERT_EQ(plain.sim.processes.size(), inert.sim.processes.size());
  for (std::size_t p = 0; p < plain.sim.processes.size(); ++p) {
    EXPECT_EQ(plain.sim.processes[p].firstStartCycle,
              inert.sim.processes[p].firstStartCycle);
    EXPECT_EQ(plain.sim.processes[p].completionCycle,
              inert.sim.processes[p].completionCycle);
    EXPECT_EQ(plain.sim.processes[p].segments, inert.sim.processes[p].segments);
  }
}

TEST(FaultInjection, InjectionsPastTheEndNeverSustainTheRun) {
  // An enabled plan whose injections all fall after the last departure:
  // the fault timeline is infinite, so a queued injection must never
  // keep the event loop alive (this would hang), and the run is
  // bit-identical to the fault-free one.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  const auto plain = runExperiment(service, SchedulerKind::DynamicLocality,
                                   config);
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->meanCrashCycles = 1'000'000'000'000;
  const auto late = runExperiment(service, SchedulerKind::DynamicLocality,
                                  config);
  EXPECT_EQ(late.sim.faults.processCrashes, 0u);
  EXPECT_EQ(late.sim.faults.faultsSuppressed, 0u);
  EXPECT_EQ(simDigest(late.sim), simDigest(plain.sim));
}

TEST(FaultInjection, RecoveriesSustainAOneCorePlatform) {
  // On one core every outage leaves no core up: the pending recovery is
  // then the only event that can wake the platform, so it must keep the
  // loop alive while undeparted processes remain.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  config.mpsoc.coreCount = 1;
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 5;
  config.mpsoc.faults->meanCoreOutageCycles = 20'000;
  config.mpsoc.faults->outageDownCycles = 5'000;
  const auto r = runExperiment(service, SchedulerKind::Fcfs, config);
  EXPECT_GT(r.sim.faults.coreRecoveries, 0u);
  EXPECT_EQ(r.sim.completedProcesses(), r.sim.processes.size());
}

TEST(FaultInjection, CrashedProcessesRetryAndKeepTheirOriginalArrival) {
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 3;
  config.mpsoc.faults->meanCrashCycles = 25'000;
  config.mpsoc.faults->retry.maxAttempts = 16;  // ample budget
  const auto r = runExperiment(service, SchedulerKind::Fcfs, config);
  const SimResult& sim = r.sim;
  EXPECT_GT(sim.faults.processCrashes, 0u);
  EXPECT_EQ(sim.faults.retriesScheduled, sim.faults.processCrashes);
  EXPECT_EQ(sim.faults.failedProcesses, 0u);
  EXPECT_EQ(sim.completedProcesses(), sim.processes.size());
  // Sojourn is measured from the ORIGINAL arrival — a crash cannot
  // launder SLO time — so the records keep the seeded arrival cycles.
  const auto arrivals = processArrivalCycles(*config.mpsoc.arrivals,
                                             service.graph.processCount());
  std::uint64_t recordedCrashes = 0;
  for (const ProcessRunRecord& p : sim.processes) {
    EXPECT_EQ(p.arrivalCycle, arrivals[p.id]);
    EXPECT_FALSE(p.failed);
    EXPECT_GE(p.completionCycle, p.arrivalCycle);
    recordedCrashes += p.crashes;
  }
  EXPECT_EQ(recordedCrashes, sim.faults.processCrashes);
  EXPECT_EQ(sim.sojourn.samples, sim.processes.size());
}

TEST(FaultInjection, ExhaustedRetryBudgetPermanentlyFails) {
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 3;
  config.mpsoc.faults->meanCrashCycles = 15'000;
  config.mpsoc.faults->retry.maxAttempts = 0;  // first crash is fatal
  const auto r = runExperiment(service, SchedulerKind::Fcfs, config);
  const SimResult& sim = r.sim;
  EXPECT_GT(sim.faults.processCrashes, 0u);
  EXPECT_EQ(sim.faults.retriesScheduled, 0u);
  EXPECT_EQ(sim.faults.failedProcesses, sim.faults.processCrashes);
  std::size_t failedRecords = 0;
  for (const ProcessRunRecord& p : sim.processes) {
    if (p.failed) {
      ++failedRecords;
      EXPECT_EQ(p.crashes, 1u);
      EXPECT_GE(p.completionCycle, p.arrivalCycle);  // the failure cycle
    }
  }
  EXPECT_EQ(failedRecords, sim.faults.failedProcesses);
  // Failed processes never sojourned; the percentiles exclude them.
  EXPECT_EQ(sim.sojourn.samples, sim.processes.size() - failedRecords);
  std::size_t cohortFailed = 0;
  for (const CohortStats& cohort : sim.cohorts) {
    cohortFailed += cohort.failedCount;
  }
  EXPECT_EQ(cohortFailed, failedRecords);
}

TEST(FaultInjection, MigrationPenaltyAccountingIsExact) {
  // Transient outages displace running work; every displaced resume
  // charges exactly migrationPenaltyCycles on the flat hierarchy (no
  // shared L2, so no re-warm term). RRS's quanta keep segments short,
  // so boundary displacement finds unfinished processes to migrate.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(1'000);
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 2;
  config.mpsoc.faults->meanCoreOutageCycles = 30'000;
  config.mpsoc.faults->outageDownCycles = 10'000;
  config.mpsoc.faults->migrationPenaltyCycles = 3'000;
  config.mpsoc.faults->l2RewarmPenaltyCycles = 7'777;  // must NOT apply
  const auto r = runExperiment(service, SchedulerKind::RoundRobin, config);
  const SimResult& sim = r.sim;
  EXPECT_GT(sim.faults.coreOutages, 0u);
  EXPECT_GT(sim.faults.faultMigrations, 0u);
  EXPECT_EQ(sim.faults.migrationPenaltyCycles,
            sim.faults.faultMigrations * 3'000u);
  EXPECT_GT(sim.faults.coreDownCycles, 0u);
  EXPECT_LE(sim.faults.coreRecoveries, sim.faults.coreOutages);
  EXPECT_EQ(sim.completedProcesses() + sim.faults.failedProcesses +
                sim.retiredProcesses + sim.rejectedProcesses,
            sim.processes.size());
}

TEST(FaultInjection, PermanentFailuresNeverWedgeThePlatform) {
  // A failure storm on a small platform: the liveness guard must keep
  // one core runnable, suppressing the failures that would wedge the
  // simulation, and every request still terminates.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(2'000);
  config.mpsoc.coreCount = 2;
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 11;
  config.mpsoc.faults->meanCoreFailureCycles = 10'000;
  const auto r = runExperiment(service, SchedulerKind::DynamicLocality,
                               config);
  const SimResult& sim = r.sim;
  EXPECT_EQ(sim.faults.coreFailures, 1u);  // cores - 1: one must survive
  EXPECT_GT(sim.faults.faultsSuppressed, 0u);
  EXPECT_EQ(sim.completedProcesses(), sim.processes.size());
}

TEST(FaultInjection, AdmissionControlShedsRetries) {
  // A tight waiting room under a crash storm: some retries re-arrive
  // into a full queue and are shed, permanently failing their process —
  // the composition of RetryPolicy with admission control.
  const Workload service = makeServiceWorkload();
  auto config = serviceConfig(500);
  config.mpsoc.admission.kind = AdmissionKind::QueueCap;
  config.mpsoc.admission.queueCap = 2;
  config.mpsoc.faults.emplace();
  config.mpsoc.faults->seed = 9;
  config.mpsoc.faults->meanCrashCycles = 3'000;
  config.mpsoc.faults->retry.maxAttempts = 5;
  config.mpsoc.faults->retry.backoffBaseCycles = 200;
  const auto r = runExperiment(service, SchedulerKind::Random, config);
  const SimResult& sim = r.sim;
  EXPECT_GT(sim.faults.retriesShed, 0u);
  EXPECT_GE(sim.faults.failedProcesses, sim.faults.retriesShed);
  EXPECT_EQ(sim.completedProcesses() + sim.faults.failedProcesses +
                sim.retiredProcesses + sim.rejectedProcesses,
            sim.processes.size());
}

TEST(FaultInjection, FailureStormIsDeterministicAcrossEveryPolicy) {
  // The failure-storm property test: random fault plans (back-to-back
  // failures, recover-then-fail, crash storms, tight retry budgets) x
  // every SchedulerKind x every AdmissionKind. Every combination must
  // terminate (run() throws on deadlock), conserve departures, and
  // reproduce bit-identically at analysis thread counts 1 and 8.
  const ThreadCountGuard guard;
  ServiceWorkloadParams params;
  params.requestCount = 48;
  const Workload service = makeServiceWorkload(params);
  const std::vector<AdmissionKind> admissions{
      AdmissionKind::AdmitAll, AdmissionKind::QueueCap, AdmissionKind::SloShed};
  Rng storm(2026);
  for (int round = 0; round < 3; ++round) {
    FaultPlan plan;
    plan.seed = storm();
    plan.meanCoreFailureCycles =
        static_cast<std::int64_t>(4'000 + storm.below(40'000));
    plan.meanCoreOutageCycles =
        static_cast<std::int64_t>(2'000 + storm.below(20'000));
    plan.meanCrashCycles = static_cast<std::int64_t>(2'000 + storm.below(15'000));
    plan.outageDownCycles = static_cast<std::int64_t>(500 + storm.below(4'000));
    plan.retry.maxAttempts = static_cast<std::uint32_t>(storm.below(4));
    plan.retry.backoffBaseCycles =
        static_cast<std::int64_t>(200 + storm.below(2'000));
    plan.retry.backoffJitterCycles = storm.below(2) == 0 ? 0 : 256;
    const bool withLifetime = storm.below(2) == 0;
    for (const SchedulerKind kind : kAllSchedulerKinds) {
      for (const AdmissionKind admission : admissions) {
        auto config = serviceConfig(1'500);
        if (withLifetime) {
          config.mpsoc.arrivals->processLifetimeCycles = 60'000;
        }
        config.mpsoc.admission.kind = admission;
        config.mpsoc.admission.queueCap = 6;
        config.mpsoc.admission.sloTargetCycles = 25'000;
        config.mpsoc.faults = plan;
        setParallelThreadCount(1);
        const auto a = runExperiment(service, kind, config);
        setParallelThreadCount(8);
        const auto b = runExperiment(service, kind, config);
        const std::string label = std::string(to_string(kind)) + "/" +
                                  std::string(to_string(admission)) +
                                  " round " + std::to_string(round);
        // Conservation: every request terminates exactly one way.
        EXPECT_EQ(a.sim.completedProcesses() + a.sim.faults.failedProcesses +
                      a.sim.retiredProcesses + a.sim.rejectedProcesses,
                  a.sim.processes.size())
            << label;
        // Bit-identity across thread counts, event for event.
        EXPECT_EQ(a.sim.makespanCycles, b.sim.makespanCycles) << label;
        EXPECT_EQ(a.sim.dcacheTotal.misses, b.sim.dcacheTotal.misses) << label;
        EXPECT_EQ(a.sim.faults.processCrashes, b.sim.faults.processCrashes)
            << label;
        EXPECT_EQ(a.sim.faults.coreFailures, b.sim.faults.coreFailures)
            << label;
        ASSERT_EQ(a.sim.processes.size(), b.sim.processes.size());
        for (std::size_t p = 0; p < a.sim.processes.size(); ++p) {
          EXPECT_EQ(a.sim.processes[p].completionCycle,
                    b.sim.processes[p].completionCycle)
              << label << " process " << p;
          EXPECT_EQ(a.sim.processes[p].crashes, b.sim.processes[p].crashes)
              << label << " process " << p;
          EXPECT_EQ(a.sim.processes[p].failed, b.sim.processes[p].failed)
              << label << " process " << p;
        }
      }
    }
  }
}

/// Direct-simulator rig for the audit-seam tests (the seams live on
/// MpsocSimulator, below the experiment harness).
struct SeamRig {
  Workload workload;

  SeamRig() {
    const ArrayId v = workload.arrays.add("V", {4096}, 4);
    ProcessSpec p;
    p.task = 0;
    p.name = "s0";
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, 256}}),
        {ArrayAccess{v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        1});
    workload.graph.addProcess(std::move(p));
  }
};

TEST(FaultAudit, CoreUpForDispatchCheckerIsLive) {
  // The compiled-in never-dispatch-to-a-down-core invariant must be
  // provably live: pretend the only core is down and the audit build
  // aborts the very first dispatch, while a default build returns the
  // unperturbed result.
  SeamRig rig;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing =
      SharingMatrix::compute(rig.workload.footprints());
  FcfsScheduler policy;
  MpsocConfig cfg;
  cfg.coreCount = 1;
  MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
  sim.auditPretendCoreDownForTest(0);
  if (audit::enabled()) {
    EXPECT_THROW(sim.run(), AuditError);
  } else {
    const SimResult r = sim.run();
    EXPECT_GT(r.makespanCycles, 0);
  }
}

TEST(FaultAudit, DepartureConservationCheckerIsLive) {
  // Skew the departure count by one phantom: the conservation identity
  // admitted == completed + rejected + retired + failed breaks at the
  // first real departure, and only the audit build notices.
  SeamRig rig;
  const AddressSpace space(rig.workload.arrays);
  const SharingMatrix sharing =
      SharingMatrix::compute(rig.workload.footprints());
  FcfsScheduler policy;
  MpsocConfig cfg;
  cfg.coreCount = 1;
  MpsocSimulator sim(rig.workload, space, sharing, policy, cfg);
  sim.auditSkewDepartureCountForTest(1);
  if (audit::enabled()) {
    EXPECT_THROW(sim.run(), AuditError);
  } else {
    const SimResult r = sim.run();
    EXPECT_GT(r.makespanCycles, 0);
  }
}

}  // namespace
}  // namespace laps
