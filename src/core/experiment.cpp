#include "core/experiment.h"

#include "sched/locality.h"
#include "taskgraph/validate.h"
#include "util/error.h"

namespace laps {

std::vector<SchedulerKind> paperSchedulers() {
  return {SchedulerKind::Random, SchedulerKind::RoundRobin,
          SchedulerKind::Locality, SchedulerKind::LocalityMapping};
}

std::vector<SchedulerKind> openSchedulers() {
  return {SchedulerKind::Random, SchedulerKind::RoundRobin,
          SchedulerKind::DynamicLocality, SchedulerKind::L2ContentionAware,
          SchedulerKind::OnlineLocality};
}

RelayoutPlan applyLsmRelayout(const Workload& workload,
                              const std::vector<Footprint>& footprints,
                              const SharingMatrix& sharing,
                              const ExperimentConfig& config,
                              AddressSpace& space) {
  // Build the LS plan first: the re-layout eligibility relation
  // depends on which processes run back-to-back on a core.
  LocalityOptions lsOptions;
  lsOptions.initialMinSharingRound = config.sched.lsInitialMinSharingRound;
  const LocalityPlan plan = buildLocalityPlan(
      workload.graph, sharing, config.mpsoc.coreCount, lsOptions);
  const PairEligibility eligible = scheduleEligibility(
      plan.perCore, footprints, workload.arrays.size());
  // Total dynamic references per array (weights the conflict matrix
  // toward hot, repeatedly-referenced data).
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
  // Size guard: interleaving confines an array to half the cache sets,
  // so the *per-process working set* of a transformed array (what one
  // process keeps hot at a time) must leave slack in that half —
  // 3/4 of a cache page in practice. The whole array may be far larger;
  // congruent twin arrays (the paper's K1/K2 of Fig. 4) are exactly
  // large arrays whose per-process blocks are small.
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
  return relayout;
}

ExperimentResult runExperiment(const Workload& workload, SchedulerKind kind,
                               const ExperimentConfig& config) {
  // Config before workload: a negative T is rejected before any
  // footprint work, whichever scheduler runs.
  check(!config.relayoutThreshold || *config.relayoutThreshold >= 0,
        "runExperiment: relayoutThreshold must be >= 0");
  validateWorkload(workload);

  // §2: exact per-process data sets and the sharing matrix. In open
  // mode (MpsocConfig::arrivals) the engine maintains its own live
  // matrix incrementally — one row per arrival — and never reads this
  // one, so the O(n^2) full compute is skipped; LSM is the exception,
  // because its re-layout pipeline below consumes the full matrix
  // before simulation starts.
  const std::vector<Footprint> footprints = workload.footprints();
  const bool openMode = config.mpsoc.arrivals.has_value();
  const SharingMatrix sharing =
      openMode && kind != SchedulerKind::LocalityMapping
          ? SharingMatrix::inactive(footprints.size())
          : SharingMatrix::compute(footprints);

  AddressSpace space(workload.arrays, config.addressSpace);

  ExperimentResult result;
  result.kind = kind;

  if (kind == SchedulerKind::LocalityMapping) {
    // LSM pipeline (§3): re-layout the conflicting arrays, then simulate
    // with the transformed address mapping.
    const RelayoutPlan relayout =
        applyLsmRelayout(workload, footprints, sharing, config, space);
    result.relayoutedArrays = relayout.relayoutCount();
    result.relayoutThreshold = relayout.threshold;
  }

  SchedulerParams schedParams = config.sched;
  const PlatformConfig platform = config.mpsoc.resolvedPlatform();
  if (kind == SchedulerKind::L2ContentionAware && platform.sharedL2) {
    // The contention-aware policy should reason about the L2 the
    // platform actually has — whichever config surface declared it.
    schedParams.l2Contention.l2Geometry =
        platform.sharedL2->aggregateConfig();
  }
  const std::unique_ptr<SchedulerPolicy> policy =
      makeScheduler(kind, schedParams);
  result.schedulerName = policy->name();
  if (kind == SchedulerKind::LocalityMapping) {
    result.schedulerName = "LSM";  // distinguish from plain LS
  }

  MpsocSimulator simulator(workload, space, sharing, *policy, config.mpsoc);
  if (openMode) simulator.provideFootprints(footprints);
  result.sim = simulator.run();
  result.energyMj = config.energy.totalMj(result.sim);
  return result;
}

std::vector<ExperimentResult> compareSchedulers(
    const Workload& workload, std::span<const SchedulerKind> kinds,
    const ExperimentConfig& config) {
  std::vector<ExperimentResult> results;
  results.reserve(kinds.size());
  for (const SchedulerKind kind : kinds) {
    results.push_back(runExperiment(workload, kind, config));
  }
  return results;
}

}  // namespace laps
