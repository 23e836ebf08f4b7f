#include "pipeline.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>

#include "sched/locality.h"
#include "taskgraph/validate.h"

namespace perfbench {

using namespace laps;

namespace {

/// Measures one pipeline stage: seconds() reads the time since the last
/// lap and restarts the lap.
class Lap {
 public:
  Lap() : last_(Clock::now()) {}
  double seconds() {
    const Clock::time_point now = Clock::now();
    const double s = secondsBetween(last_, now);
    last_ = now;
    return s;
  }

 private:
  Clock::time_point last_;
};

std::uint64_t nonzeroPairs(const SharingMatrix& m) {
  std::uint64_t count = 0;
  for (std::size_t p = 0; p < m.size(); ++p) {
    const std::span<const std::int64_t> row = m.row(p);
    for (std::size_t q = p + 1; q < row.size(); ++q) count += row[q] != 0;
  }
  return count;
}

}  // namespace

// Mirrors runExperiment (src/core/experiment.cpp) call for call; the
// benchmark fails its correctness check if the two results ever differ.
TracedRun runTraced(const WorkloadInputs& in) {
  const Workload& workload = in.workload;
  const ExperimentConfig& config = in.config;
  const SchedulerKind kind = in.kind;
  const bool lsm = kind == SchedulerKind::LocalityMapping;

  TracedRun out;
  LayerSplit& split = out.split;
  const Clock::time_point start = Clock::now();
  Lap lap;

  validateWorkload(workload);
  lap.seconds();

  out.footprints = workload.footprints();
  const std::vector<Footprint>& footprints = out.footprints;
  split.footprintsSeconds = lap.seconds();

  const bool openMode = config.mpsoc.arrivals.has_value();
  const SharingMatrix sharing = openMode && !lsm
                                    ? SharingMatrix::inactive(footprints.size())
                                    : SharingMatrix::compute(footprints);
  split.sharingSeconds = lap.seconds();

  AddressSpace space(workload.arrays, config.addressSpace);
  ExperimentResult& result = out.result;
  result.kind = kind;
  lap.seconds();

  if (lsm) {
    LocalityOptions lsOptions;
    lsOptions.initialMinSharingRound = config.sched.lsInitialMinSharingRound;
    const LocalityPlan plan = buildLocalityPlan(
        workload.graph, sharing, config.mpsoc.coreCount, lsOptions);
    split.planSeconds = lap.seconds();

    const PairEligibility eligible = scheduleEligibility(
        plan.perCore, footprints, workload.arrays.size());
    split.eligibilitySeconds = lap.seconds();

    std::vector<std::int64_t> refCounts(workload.arrays.size(), 0);
    for (const ProcessSpec& p : workload.graph.processes()) {
      for (const LoopNest& nest : p.nests) {
        for (const ArrayAccess& access : nest.accesses) {
          refCounts[access.array] += nest.space.numPoints();
        }
      }
    }
    const ConflictMatrix conflicts = ConflictMatrix::compute(
        workload.arrays, footprints, space, config.mpsoc.memory.l1d,
        refCounts);
    split.conflictSeconds = lap.seconds();

    RelayoutLimits limits;
    limits.maxFootprintBytes = config.mpsoc.memory.l1d.cachePageBytes() * 3 / 4;
    limits.arrayFootprintBytes.assign(workload.arrays.size(), 0);
    for (const Footprint& fp : footprints) {
      for (const auto& [id, elems] : fp.perArray()) {
        limits.arrayFootprintBytes[id] =
            std::max(limits.arrayFootprintBytes[id],
                     elems.cardinality() * workload.arrays.at(id).elemSize);
      }
    }
    const RelayoutPlan relayout =
        planRelayout(conflicts, config.mpsoc.memory.l1d, eligible,
                     config.relayoutThreshold, limits);
    for (ArrayId a = 0; a < relayout.transforms.size(); ++a) {
      if (!relayout.transforms[a].isIdentity()) {
        space.setTransform(a, relayout.transforms[a]);
      }
    }
    result.relayoutedArrays = relayout.relayoutCount();
    result.relayoutThreshold = relayout.threshold;
    split.relayoutSeconds = lap.seconds();
  }

  SchedulerParams schedParams = config.sched;
  const PlatformConfig platform = config.mpsoc.resolvedPlatform();
  if (kind == SchedulerKind::L2ContentionAware && platform.sharedL2) {
    schedParams.l2Contention.l2Geometry = platform.sharedL2->aggregateConfig();
  }
  const std::unique_ptr<SchedulerPolicy> policy =
      makeScheduler(kind, schedParams);
  TimedPolicy timed(*policy);
  result.schedulerName = lsm ? "LSM" : timed.name();
  lap.seconds();

  MpsocSimulator simulator(workload, space, sharing, timed, config.mpsoc);
  if (openMode) simulator.provideFootprints(footprints);
  split.constructSeconds = lap.seconds();

  result.sim = simulator.run();
  split.runSeconds = lap.seconds();
  result.energyMj = config.energy.totalMj(result.sim);
  const Clock::time_point end = Clock::now();

  split.pipelineSeconds = secondsBetween(start, end);
  split.presimSeconds = secondsBetween(start, timed.resetEnd());
  split.resetSeconds = timed.resetSeconds();
  split.pickSeconds = timed.pickSeconds();
  split.pickCalls = timed.pickCalls();
  split.eventSeconds = timed.eventSeconds();
  split.eventCalls = timed.eventCalls();
  if (!openMode || lsm) split.sharingNonzeroPairs = nonzeroPairs(sharing);
  out.liveSet = timed.liveSetEvents();
  return out;
}

SharingReplay replaySharing(std::span<const Footprint> footprints,
                            std::span<const LiveSetEvent> events,
                            bool checkPeakCells) {
  SharingReplay replay;
  const std::size_t n = footprints.size();

  // The event after which the most processes are live.
  std::size_t live = 0;
  std::size_t peakLive = 0;
  std::size_t peakEvent = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    live = events[i].arrival ? live + 1 : live - 1;
    if (live > peakLive) {
      peakLive = live;
      peakEvent = i;
    }
  }

  SharingMatrix matrix = SharingMatrix::inactive(n);
  std::vector<char> isLive(n, 0);
  live = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const LiveSetEvent e = events[i];
    if (e.process >= n || (isLive[e.process] != 0) == e.arrival) {
      replay.consistent = false;
      return replay;
    }
    const Clock::time_point t0 = Clock::now();
    if (e.arrival) {
      matrix.addProcess(footprints, e.process);
    } else {
      matrix.removeProcess(e.process);
    }
    replay.seconds += secondsBetween(t0, Clock::now());
    isLive[e.process] = e.arrival ? 1 : 0;
    live = e.arrival ? live + 1 : live - 1;
    if (matrix.isActive(e.process) != e.arrival) replay.consistent = false;
    if (e.arrival) {
      const std::span<const std::int64_t> row = matrix.row(e.process);
      for (std::size_t q = 0; q < n; ++q) {
        replay.nonzeroPairs += q != e.process && row[q] != 0;
      }
    }
    if (checkPeakCells && i == peakEvent) {
      for (std::size_t p = 0; p < n; ++p) {
        if (!isLive[p]) continue;
        if (matrix.at(p, p) != footprints[p].totalElements()) {
          replay.consistent = false;
        }
        for (std::size_t q = p + 1; q < n; ++q) {
          if (isLive[q] &&
              matrix.at(p, q) != footprints[p].sharedElements(footprints[q])) {
            replay.consistent = false;
          }
        }
      }
    }
  }
  if (matrix.activeCount() != live) replay.consistent = false;
  return replay;
}

namespace {

/// FNV-1a over the bytes of each field fed to it.
class Digest {
 public:
  template <typename T>
  Digest& add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& add(const CacheStats& s) {
    return add(s.accesses).add(s.hits).add(s.misses).add(s.evictions).add(
        s.invalidations);
  }
  Digest& add(const SojournPercentiles& s) {
    return add(s.p50).add(s.p95).add(s.p99).add(s.samples);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t digest(const SimResult& r) {
  Digest d;
  d.add(r.makespanCycles).add(r.seconds);
  d.add(r.dcacheTotal).add(r.icacheTotal);
  d.add(r.dataMisses.compulsory).add(r.dataMisses.capacity).add(
      r.dataMisses.conflict);
  d.add(r.sharedL2Enabled).add(r.l2Total).add(r.l2BankWaitCycles);
  d.add(r.inclusionWritebacks).add(r.busTransactions).add(r.busWaitCycles);
  d.add(r.nocEnabled).add(r.nocTransfers).add(r.nocPostedTransfers);
  d.add(r.nocHopCycles).add(r.nocLinkWaitCycles);
  d.add(r.nocMigrationPenaltyCycles).add(r.directoryEnabled);
  d.add(r.directoryInvalidationsSent).add(r.directoryInvalidationsFiltered);
  d.add(r.contextSwitches).add(r.preemptions).add(r.migrations);
  for (const CohortStats& c : r.cohorts) {
    d.add(c.task).add(c.arrivalCycle).add(c.completionCycle);
    d.add(c.processCount).add(c.retiredCount).add(c.rejectedCount);
    d.add(c.failedCount).add(c.totalLatencyCycles).add(c.sojourn);
  }
  d.add(r.retiredProcesses).add(r.rejectedProcesses).add(r.sojourn);
  const FaultStats& f = r.faults;
  d.add(f.coreFailures).add(f.coreOutages).add(f.coreRecoveries);
  d.add(f.faultsSuppressed).add(f.processCrashes).add(f.retriesScheduled);
  d.add(f.retriesShed).add(f.failedProcesses).add(f.faultMigrations);
  d.add(f.migrationPenaltyCycles).add(f.coreDownCycles);
  d.add(r.switchOverheadCycles);
  for (const std::int64_t c : r.coreBusyCycles) d.add(c);
  for (const std::int64_t c : r.coreIdleCycles) d.add(c);
  for (const ProcessRunRecord& p : r.processes) {
    d.add(p.id).add(p.arrivalCycle).add(p.firstStartCycle);
    d.add(p.completionCycle).add(p.lastCore).add(p.segments);
    d.add(p.retired).add(p.rejected).add(p.failed).add(p.crashes);
  }
  const PolicyStats& s = r.policy;
  d.add(s.decisions).add(s.rebuilds).add(s.patches).add(s.steals).add(
      s.offloads);
  return d.value();
}

}  // namespace perfbench
