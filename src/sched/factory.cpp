#include "sched/factory.h"

#include "sched/basic.h"
#include "sched/locality.h"
#include "util/error.h"

namespace laps {

namespace {

// Compile-time factory coverage: tags mirror makeScheduler's branches
// 1:1, so a SchedulerKind added to the enum and the catalogue without a
// constructor branch fails the static_assert below (and the switches
// themselves under -Wswitch) instead of reaching makeScheduler's
// unreachable fail() at run time.
constexpr int factoryBranchTag(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Random: return 1;
    case SchedulerKind::RoundRobin: return 2;
    case SchedulerKind::Locality:
    case SchedulerKind::LocalityMapping: return 3;
    case SchedulerKind::Fcfs: return 4;
    case SchedulerKind::Sjf: return 5;
    case SchedulerKind::CriticalPath: return 6;
    case SchedulerKind::DynamicLocality: return 7;
    case SchedulerKind::L2ContentionAware: return 8;
    case SchedulerKind::OnlineLocality: return 9;
  }
  return 0;
}

constexpr bool factoryCoversCatalogue() {
  for (const SchedulerKind kind : kAllSchedulerKinds) {
    if (factoryBranchTag(kind) == 0) return false;
  }
  return true;
}

static_assert(factoryCoversCatalogue(),
              "makeScheduler lacks a constructor branch for a catalogued "
              "SchedulerKind");

}  // namespace

std::string to_string(SchedulerKind kind) {
  const std::string_view name = schedulerKindName(kind);
  check(!name.empty(), "to_string: unknown SchedulerKind");
  return std::string(name);
}

void validateSchedulerParams(SchedulerKind kind,
                             const SchedulerParams& params) {
  switch (kind) {
    case SchedulerKind::RoundRobin:
      check(params.rrsQuantumCycles > 0,
            "SchedulerParams: RRS quantum must be positive");
      break;
    case SchedulerKind::L2ContentionAware:
      params.l2Contention.validate();
      break;
    case SchedulerKind::OnlineLocality:
      params.onlineLocality.validate();
      break;
    default:
      break;  // the other policies consume no constrained parameter
  }
}

std::unique_ptr<SchedulerPolicy> makeScheduler(SchedulerKind kind,
                                               const SchedulerParams& params) {
  validateSchedulerParams(kind, params);
  switch (kind) {
    case SchedulerKind::Random:
      return std::make_unique<RandomScheduler>(params.randomSeed);
    case SchedulerKind::RoundRobin:
      return std::make_unique<RoundRobinScheduler>(params.rrsQuantumCycles);
    case SchedulerKind::Locality:
    case SchedulerKind::LocalityMapping: {
      LocalityOptions options;
      options.initialMinSharingRound = params.lsInitialMinSharingRound;
      return std::make_unique<LocalityScheduler>(options);
    }
    case SchedulerKind::Fcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::Sjf:
      return std::make_unique<SjfScheduler>();
    case SchedulerKind::CriticalPath:
      return std::make_unique<CriticalPathScheduler>();
    case SchedulerKind::DynamicLocality:
      return std::make_unique<DynamicLocalityScheduler>();
    case SchedulerKind::L2ContentionAware:
      return std::make_unique<L2ContentionAwareScheduler>(params.l2Contention);
    case SchedulerKind::OnlineLocality:
      // OLS always runs the Fig. 3 initial round; lsInitialMinSharingRound
      // stays LS/LSM-only.
      return std::make_unique<OnlineLocalityScheduler>(params.onlineLocality);
  }
  fail("makeScheduler: unknown SchedulerKind");
}

}  // namespace laps
