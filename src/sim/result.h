#pragma once
/// \file result.h
/// \brief Metrics produced by one MPSoC simulation run.

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cache/miss_class.h"
#include "sched/scheduler.h"
#include "taskgraph/process.h"

namespace laps {

/// Execution record of one process.
struct ProcessRunRecord {
  ProcessId id = 0;
  std::int64_t arrivalCycle = 0;      ///< 0 in closed workloads
  std::int64_t firstStartCycle = -1;  ///< -1 = never ran
  std::int64_t completionCycle = -1;  ///< -1 = did not complete
  std::size_t lastCore = 0;           ///< core that ran the final segment
  std::uint32_t segments = 0;         ///< 1 = ran uninterrupted
  /// Open workloads only: the process exceeded its lifetime and was
  /// retired before finishing its trace. completionCycle then holds the
  /// lifetime deadline — when the process logically left — even when
  /// the engine only enforced it at a later scheduling boundary.
  bool retired = false;
  /// Open workloads only: admission control turned the process away at
  /// arrival. It never ran (firstStartCycle -1, segments 0), the
  /// scheduling policy never heard of it, and completionCycle holds the
  /// arrival cycle. Rejected processes are excluded from the sojourn
  /// percentiles.
  bool rejected = false;
  /// Fault injection only: the process crashed and its retry budget ran
  /// out (or its retry was shed by admission control) — it left the
  /// system without completing. completionCycle holds the failure
  /// cycle; like rejected processes, failed ones are excluded from the
  /// sojourn percentiles.
  bool failed = false;
  /// Fault injection only: crashes this process suffered (each one
  /// restarted its trace from the beginning).
  std::uint32_t crashes = 0;
};

/// Fault-injection and availability accounting of one run (all zero
/// when MpsocConfig::faults is disabled — the fault-free engine).
struct FaultStats {
  std::uint64_t coreFailures = 0;   ///< permanent core failures applied
  std::uint64_t coreOutages = 0;    ///< transient outages applied
  std::uint64_t coreRecoveries = 0; ///< outage recoveries processed
  /// Injected events that found no valid target: a permanent failure
  /// that would have wedged the platform (no other core left able to
  /// run), an outage with every core already down, or a crash with
  /// nothing running.
  std::uint64_t faultsSuppressed = 0;
  std::uint64_t processCrashes = 0;    ///< crash events applied
  std::uint64_t retriesScheduled = 0;  ///< crash retries queued
  std::uint64_t retriesShed = 0;       ///< retries denied by admission
  /// Processes whose crash retry budget ran out (or whose retry was
  /// shed): they left the system without completing.
  std::uint64_t failedProcesses = 0;
  /// Running processes displaced by a core going down (preempted with
  /// progress kept; their next segment pays the migration penalty).
  std::uint64_t faultMigrations = 0;
  /// Penalty cycles actually charged to displaced processes' resumes
  /// (migration + optional L2 re-warm), outside the quantum like
  /// switch overhead.
  std::uint64_t migrationPenaltyCycles = 0;
  /// Core-cycles spent unavailable (down), summed over cores — neither
  /// busy nor idle in the per-core accounting.
  std::uint64_t coreDownCycles = 0;
};

/// Exact p50/p95/p99 order statistics over recorded sojourn times
/// (exit cycle - arrival cycle of every admitted process, completed or
/// retired — no sampling). All zero when no sojourn was recorded.
struct SojournPercentiles {
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
  std::size_t samples = 0;  ///< sojourns the percentiles rank over
};

/// Per-arrival-cohort metrics of an open workload (one cohort = all
/// processes of one task, arriving together).
struct CohortStats {
  TaskId task = 0;                  ///< task id of this cohort
  std::int64_t arrivalCycle = 0;    ///< when the cohort entered
  std::int64_t completionCycle = 0; ///< last exit (completion or retire)
  std::size_t processCount = 0;
  std::size_t retiredCount = 0;     ///< processes killed by the lifetime
  std::size_t rejectedCount = 0;    ///< processes turned away at arrival
  std::size_t failedCount = 0;      ///< processes lost to crash failures
  /// Sum over the cohort's completed-or-retired processes of
  /// (exit cycle - arrival cycle) — divide by completedCount() +
  /// retiredCount for the mean sojourn time.
  std::int64_t totalLatencyCycles = 0;
  /// Exact sojourn order statistics over the cohort's completed-or-
  /// retired processes (rejected and failed ones never sojourned).
  SojournPercentiles sojourn;

  /// Response time of the whole cohort.
  [[nodiscard]] std::int64_t makespanCycles() const {
    return completionCycle - arrivalCycle;
  }

  /// Goodput of the cohort: processes that ran to completion — neither
  /// rejected at the door, retired by the lifetime, nor permanently
  /// failed after crashes.
  [[nodiscard]] std::size_t completedCount() const {
    return processCount - retiredCount - rejectedCount - failedCount;
  }
};

/// Everything a simulation run reports.
struct SimResult {
  std::int64_t makespanCycles = 0;  ///< completion of the last process
  /// makespan / clock — a readout derived from makespanCycles after the
  /// run; every comparison and baseline uses the integer cycles.
  // LINT-ALLOW(no-float): derived readout of the integer makespan; reporting only
  double seconds = 0.0;

  CacheStats dcacheTotal;  ///< summed over cores
  CacheStats icacheTotal;
  MissBreakdown dataMisses;  ///< populated when classification enabled

  /// \name Shared-level statistics (zeros when the hierarchy is flat)
  /// @{
  bool sharedL2Enabled = false;       ///< an L2 sat under the L1s
  CacheStats l2Total;                 ///< shared L2, summed over banks
  std::uint64_t l2BankWaitCycles = 0; ///< queueing behind busy L2 banks
  /// Off-chip write-backs of dirty L1 data that no L2 counter sees:
  /// copies flushed by inclusion back-invalidation past a clean L2
  /// entry, and L1 victims whose L2 line was already gone. Disjoint
  /// from l2Total.dirtyEvictions.
  std::uint64_t inclusionWritebacks = 0;
  std::uint64_t busTransactions = 0;  ///< demand fills + write-backs
  std::uint64_t busWaitCycles = 0;    ///< queueing for a free bus slot
  /// @}

  /// \name NoC / directory statistics (zeros on Flat/Bus interconnects)
  /// @{
  bool nocEnabled = false;            ///< a Mesh/Xbar NoC routed misses
  std::uint64_t nocTransfers = 0;     ///< demand transfers routed
  std::uint64_t nocPostedTransfers = 0;  ///< write-backs + invalidations
  std::uint64_t nocHopCycles = 0;     ///< summed per-hop latency (demand)
  std::uint64_t nocLinkWaitCycles = 0;   ///< link queueing (demand)
  /// Resume penalties charged for moving a process between tiles
  /// (hops × NocConfig::migrationHopCycles, outside the quantum).
  std::uint64_t nocMigrationPenaltyCycles = 0;
  bool directoryEnabled = false;      ///< targeted back-invalidation ran
  std::uint64_t directoryInvalidationsSent = 0;
  /// Probes the broadcast protocol would have issued that the sharer
  /// mask filtered out.
  std::uint64_t directoryInvalidationsFiltered = 0;
  /// @}

  std::uint64_t contextSwitches = 0;  ///< segments that changed the process
  std::uint64_t preemptions = 0;      ///< quantum expirations
  std::uint64_t migrations = 0;       ///< resumes on a different core

  /// \name Open-workload statistics (empty/zero in closed workloads)
  /// @{
  /// Per-arrival-cohort metrics, in arrival order (= task order).
  std::vector<CohortStats> cohorts;
  /// Processes retired at their lifetime deadline before completing.
  std::uint64_t retiredProcesses = 0;
  /// Processes admission control turned away at arrival (never
  /// scheduled; the policy saw no event for them).
  std::uint64_t rejectedProcesses = 0;
  /// Exact global sojourn order statistics over all admitted processes.
  SojournPercentiles sojourn;
  /// Fault-injection and availability accounting (all zero when
  /// MpsocConfig::faults is disabled).
  FaultStats faults;
  /// @}

  /// Cycles spent on context-switch overhead (summed over cores). Kept
  /// out of coreBusyCycles: switch overhead is neither useful work nor
  /// idleness, and counting it as busy would inflate utilization().
  std::uint64_t switchOverheadCycles = 0;

  std::vector<std::int64_t> coreBusyCycles;  ///< per core, useful work only
  std::vector<std::int64_t> coreIdleCycles;  ///< per core (until makespan)

  std::vector<ProcessRunRecord> processes;  ///< indexed by ProcessId

  /// Data steps the trace replay committed per event and in bulk,
  /// summed over cores (simulator work, not simulated behaviour).
  ReplayPathStats replayPath;

  /// The policy's own decision-work counters (scheduling overhead, not
  /// simulated time): rebuilds/patches/steals for replanning policies,
  /// zeros for the rest.
  PolicyStats policy;

  /// Total data references simulated.
  [[nodiscard]] std::uint64_t dataReferences() const {
    return dcacheTotal.accesses;
  }

  /// Goodput of the run: processes that ran to completion — neither
  /// rejected at admission, retired by the lifetime, nor permanently
  /// failed after crashes.
  [[nodiscard]] std::size_t completedProcesses() const {
    return processes.size() -
           static_cast<std::size_t>(rejectedProcesses + retiredProcesses +
                                    faults.failedProcesses);
  }

  /// Overall data-cache miss rate (reporting only; see CacheStats).
  // LINT-ALLOW(no-float): presentation-only rate over final integer counters
  [[nodiscard]] double dataMissRate() const { return dcacheTotal.missRate(); }

  /// Mean core utilization in [0, 1] (reporting only; see engine.cpp).
  // LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
  [[nodiscard]] double utilization() const;
};

}  // namespace laps
