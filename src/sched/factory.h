#pragma once
/// \file factory.h
/// \brief Construction of scheduler policies by kind.

#include <memory>

#include "sched/dynamic_locality.h"
#include "sched/online_locality.h"
#include "sched/scheduler.h"

namespace laps {

/// Tunables consumed by individual policies.
struct SchedulerParams {
  std::int64_t rrsQuantumCycles = 8'000;  ///< RRS time slice
  std::uint64_t randomSeed = 1;            ///< RS seed
  bool lsInitialMinSharingRound = true;    ///< LS ablation switch
  L2ContentionOptions l2Contention{};      ///< CALS L2 geometry
  OnlineLocalityOptions onlineLocality{};  ///< OLS rebuild threshold
};

/// Throws laps::Error when a parameter the policy implementing \p kind
/// consumes is invalid (non-positive RRS quantum, inconsistent L2
/// geometry, negative OLS threshold). makeScheduler calls this first, so
/// a bad configuration fails at construction — not deep inside
/// MpsocSimulator::run().
void validateSchedulerParams(SchedulerKind kind, const SchedulerParams& params);

/// Creates the policy implementing \p kind after validating \p params
/// (see validateSchedulerParams). Note that
/// SchedulerKind::LocalityMapping returns the same policy as Locality:
/// the data re-layout half of LSM is applied to the AddressSpace by the
/// experiment harness before simulation (see core/experiment.h).
[[nodiscard]] std::unique_ptr<SchedulerPolicy> makeScheduler(
    SchedulerKind kind, const SchedulerParams& params = {});

}  // namespace laps
