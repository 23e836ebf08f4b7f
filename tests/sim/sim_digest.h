#pragma once
/// \file sim_digest.h
/// \brief 64-bit FNV-1a digest over a whole SimResult. Two runs with
/// equal digests agree on every reported field: makespan, every cache,
/// interconnect, fault and open-workload counter, every per-core and
/// per-cohort figure, and every per-process record.

#include <bit>
#include <cstdint>

#include "../sched/golden_digest.h"
#include "core/laps.h"

namespace laps {

inline Fnv1a& addCacheStats(Fnv1a& h, const CacheStats& s) {
  return h.add(s.accesses)
      .add(s.hits)
      .add(s.misses)
      .add(s.evictions)
      .add(s.dirtyEvictions)
      .add(s.invalidations);
}

inline Fnv1a& addSojourn(Fnv1a& h, const SojournPercentiles& s) {
  return h.add(static_cast<std::uint64_t>(s.p50))
      .add(static_cast<std::uint64_t>(s.p95))
      .add(static_cast<std::uint64_t>(s.p99))
      .add(s.samples);
}

inline std::uint64_t simDigest(const SimResult& r) {
  const auto i64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  Fnv1a h;
  h.add(i64(r.makespanCycles)).add(std::bit_cast<std::uint64_t>(r.seconds));
  addCacheStats(h, r.dcacheTotal);
  addCacheStats(h, r.icacheTotal);
  h.add(r.dataMisses.compulsory)
      .add(r.dataMisses.capacity)
      .add(r.dataMisses.conflict);
  h.add(r.sharedL2Enabled ? 1 : 0);
  addCacheStats(h, r.l2Total);
  h.add(r.l2BankWaitCycles)
      .add(r.inclusionWritebacks)
      .add(r.busTransactions)
      .add(r.busWaitCycles)
      .add(r.nocEnabled ? 1 : 0)
      .add(r.nocTransfers)
      .add(r.nocPostedTransfers)
      .add(r.nocHopCycles)
      .add(r.nocLinkWaitCycles)
      .add(r.nocMigrationPenaltyCycles)
      .add(r.directoryEnabled ? 1 : 0)
      .add(r.directoryInvalidationsSent)
      .add(r.directoryInvalidationsFiltered)
      .add(r.contextSwitches)
      .add(r.preemptions)
      .add(r.migrations);
  h.add(r.cohorts.size());
  for (const CohortStats& c : r.cohorts) {
    h.add(c.task)
        .add(i64(c.arrivalCycle))
        .add(i64(c.completionCycle))
        .add(c.processCount)
        .add(c.retiredCount)
        .add(c.rejectedCount)
        .add(c.failedCount)
        .add(i64(c.totalLatencyCycles));
    addSojourn(h, c.sojourn);
  }
  h.add(r.retiredProcesses).add(r.rejectedProcesses);
  addSojourn(h, r.sojourn);
  const FaultStats& f = r.faults;
  h.add(f.coreFailures)
      .add(f.coreOutages)
      .add(f.coreRecoveries)
      .add(f.faultsSuppressed)
      .add(f.processCrashes)
      .add(f.retriesScheduled)
      .add(f.retriesShed)
      .add(f.failedProcesses)
      .add(f.faultMigrations)
      .add(f.migrationPenaltyCycles)
      .add(f.coreDownCycles);
  h.add(r.switchOverheadCycles);
  h.add(r.coreBusyCycles.size());
  for (const std::int64_t c : r.coreBusyCycles) h.add(i64(c));
  h.add(r.coreIdleCycles.size());
  for (const std::int64_t c : r.coreIdleCycles) h.add(i64(c));
  h.add(r.processes.size());
  for (const ProcessRunRecord& p : r.processes) {
    h.add(p.id)
        .add(i64(p.arrivalCycle))
        .add(i64(p.firstStartCycle))
        .add(i64(p.completionCycle))
        .add(p.lastCore)
        .add(p.segments)
        .add(p.retired ? 1 : 0)
        .add(p.rejected ? 1 : 0)
        .add(p.failed ? 1 : 0)
        .add(p.crashes);
  }
  h.addStats(r.policy);
  return h.value;
}

}  // namespace laps
