#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "sim/replay.h"
#include "util/audit.h"
#include "util/error.h"
#include "util/stats.h"

namespace laps {

// Reporting-only readout of final integer busy counters; nothing here
// re-enters the simulation.
// LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
double SimResult::utilization() const {
  if (makespanCycles <= 0 || coreBusyCycles.empty()) return 0.0;
  // LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
  double busy = 0.0;
  // LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
  for (const auto c : coreBusyCycles) busy += static_cast<double>(c);
  // LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
  return busy / (static_cast<double>(makespanCycles) *
                 // LINT-ALLOW(no-float): presentation-only mean over final integer busy counters
                 static_cast<double>(coreBusyCycles.size()));
}

MpsocSimulator::MpsocSimulator(const Workload& workload,
                               const AddressSpace& space,
                               const SharingMatrix& sharing,
                               SchedulerPolicy& policy, MpsocConfig config)
    : workload_(&workload),
      space_(&space),
      sharing_(&sharing),
      policy_(&policy),
      config_(config) {
  check(config_.coreCount >= 1, "MpsocSimulator: need at least one core");
  check(sharing.size() == workload.graph.processCount(),
        "MpsocSimulator: sharing matrix size mismatch");
  config_.memory.l1d.validate();
  if (config_.memory.modelICache) config_.memory.l1i.validate();
  // One eager validation point for the whole shared-level shape: the
  // descriptor checks each enabled component plus the cross-field
  // rules.
  platform_ = config_.resolvedPlatform();
  platform_.validate(config_.coreCount);
  config_.admission.validate();
  // Code bodies sit below the data segment; enough tasks would run the
  // code segment into the lowest array, and a shared L2 would then merge
  // instruction and data lines.
  std::uint64_t taskCount = 0;
  for (const ProcessSpec& p : workload.graph.processes()) {
    taskCount = std::max<std::uint64_t>(taskCount, std::uint64_t{p.task} + 1);
  }
  std::uint64_t lowestBase = std::numeric_limits<std::uint64_t>::max();
  for (ArrayId a = 0; a < space.arrayCount(); ++a) {
    lowestBase = std::min(lowestBase, space.baseOf(a));
  }
  check(codeSegmentEnd(taskCount) <= lowestBase,
        "MpsocSimulator: the code bodies of " + std::to_string(taskCount) +
            " tasks reach the lowest array base (raise "
            "AddressSpaceOptions::dataBase)");
}

std::int64_t MpsocSimulator::runSegment(std::size_t coreIdx, ProcessId process,
                                        std::int64_t now) {
  Core& core = cores_[coreIdx];

  // The offer path skips down cores; this compiled-in check proves no
  // other path can slip a segment onto one (the ForTest seam lets the
  // audit suite show the checker is live).
  LAPS_AUDIT(audit::coreUpForDispatch(
      core.down || auditPretendDownCoreForTest_ == coreIdx, coreIdx));

  // Switch overhead is charged outside the quantum comparison: the OS
  // timer starts when the process actually runs, so dispatch overhead
  // must not shrink the time slice the policy grants. A fault-displaced
  // process's resume additionally pays the migration penalty (cold L1
  // on whatever core took it in, plus the shared-L2 re-warm when the
  // platform has one) — also outside the quantum, but accounted
  // separately (FaultStats::migrationPenaltyCycles).
  std::int64_t switchOverhead = 0;
  if (migrationPenaltyDue_[process]) {
    migrationPenaltyDue_[process] = false;
    const std::int64_t penalty =
        config_.faults->migrationPenaltyCycles +
        (platform_.sharedL2 ? config_.faults->l2RewarmPenaltyCycles : 0);
    switchOverhead += penalty;
    result_.faults.migrationPenaltyCycles +=
        static_cast<std::uint64_t>(penalty);
  }
  const bool isSwitch = core.lastScheduled != std::optional<ProcessId>{process};
  if (isSwitch) {
    switchOverhead += config_.switchCycles;
    ++result_.contextSwitches;
    result_.switchOverheadCycles +=
        static_cast<std::uint64_t>(config_.switchCycles);
    if (config_.flushOnSwitch) core.memory->flushAll();
  }
  if (lastRanOn_[process] && *lastRanOn_[process] != coreIdx) {
    ++result_.migrations;
    // On a NoC the resume's warm state moves across the die: charge the
    // distance-scaled penalty outside the quantum, like switch overhead.
    // migrationHopCycles defaults to 0, keeping pre-NoC runs exact.
    if (platform_.nocEnabled() && platform_.noc.migrationHopCycles > 0) {
      const NocTopology& topo = hierarchy_->noc()->topology();
      const std::int64_t penalty =
          platform_.noc.migrationHopCycles *
          topo.hops(static_cast<std::int64_t>(*lastRanOn_[process]),
                    static_cast<std::int64_t>(coreIdx));
      switchOverhead += penalty;
      result_.nocMigrationPenaltyCycles += static_cast<std::uint64_t>(penalty);
    }
  }

  if (!cursors_[process]) {
    cursors_[process].emplace(workload_->graph.process(process),
                              workload_->arrays, *space_);
  }
  ProcessTraceCursor& cursor = *cursors_[process];

  auto& record = result_.processes[process];
  if (record.firstStartCycle < 0) record.firstStartCycle = now;

  std::optional<std::int64_t> quantum = policy_->quantum();
  MemorySystem& mem = *core.memory;

  // Event times are popped in non-decreasing order, so no later segment
  // can issue a shared-level request before this one starts: raise the
  // contention calendars' retire horizon to here.
  hierarchy_->retireBefore(now);
  const std::int64_t segStart = now + switchOverhead;

  // Lifetime enforcement: cap the segment at the process's deadline so
  // an overstaying process is cut exactly there (the caller retires it
  // when the segment ends at or past the deadline). The cap acts like a
  // per-segment quantum, so it composes with preemptive policies.
  if (const std::int64_t due = deadline(process); due != kNever) {
    const std::int64_t remain = std::max<std::int64_t>(due - segStart, 1);
    quantum = quantum ? std::min(*quantum, remain) : remain;
  }

  const std::int64_t cycles =
      replaySegmentRunLength(cursor, mem, quantum, segStart);

  core.current = process;
  core.lastScheduled = process;
  core.busyCycles += cycles;  // useful work; overhead counted separately
  lastRanOn_[process] = coreIdx;
  ++record.segments;
  return now + switchOverhead + cycles;
}

void MpsocSimulator::provideFootprints(std::vector<Footprint> footprints) {
  check(footprints.size() == workload_->graph.processCount(),
        "MpsocSimulator::provideFootprints: footprint count mismatch");
  footprints_ = std::move(footprints);
  footprintsProvided_ = true;
}

std::int64_t MpsocSimulator::deadline(ProcessId process) const {
  if (!openWorkload_ || !config_.arrivals->processLifetimeCycles) {
    return kNever;
  }
  // Saturating: a lifetime reaching past kNever is unlimited, not a
  // wrapped (negative) deadline.
  const std::int64_t arrival = arrivalCycle_[process];
  return arrival +
         std::min(*config_.arrivals->processLifetimeCycles, kNever - arrival);
}

bool MpsocSimulator::alive() const {
  const auto pending = [this](EventSource source) {
    return pending_[static_cast<std::size_t>(source)] > 0;
  };
  return pending(EventSource::Arrival) || pending(EventSource::Retry) ||
         pending(EventSource::Core) ||
         (pending(EventSource::Recovery) &&
          departedCount_ < workload_->graph.processCount());
}

bool MpsocSimulator::enterSystem(ProcessId process) {
  if (!admission_.admit(inSystem_ - runningCount_)) return false;
  arrived_[process] = true;
  ++inSystem_;
  liveSharing_.addProcess(footprints_, process);
  policy_->onArrival(process);
  LAPS_AUDIT(liveSharing_.auditInvariants());
  LAPS_AUDIT(
      audit::activeSetAgreement(liveSharing_, arrived_, completed_, inSystem_));
  return true;
}

void MpsocSimulator::leaveSystem(ProcessId process) {
  policy_->onExit(process);
  liveSharing_.removeProcess(process);
  --inSystem_;
  LAPS_AUDIT(liveSharing_.auditInvariants());
  LAPS_AUDIT(
      audit::activeSetAgreement(liveSharing_, arrived_, completed_, inSystem_));
}

void MpsocSimulator::markDeparted(ProcessId process, std::size_t coreIdx,
                                  std::int64_t now, DepartureReason reason) {
  // A retired process logically left at its deadline; the engine may
  // only *notice* later (a waiting process is lazily retired at its
  // next pick). Record the deadline, not the notice time — otherwise a
  // starvation-prone policy would be credited unbounded sojourn for
  // processes the lifetime model says were already gone.
  if (reason == DepartureReason::Retired) {
    now = std::min(now, deadline(process));
  }
  completed_[process] = true;
  ++departedCount_;
  auto& record = result_.processes[process];
  record.completionCycle = now;
  switch (reason) {
    case DepartureReason::Completed:
      record.lastCore = coreIdx;
      ++departedCompleted_;
      policy_->onComplete(process);
      break;
    case DepartureReason::Retired:
      record.lastCore = coreIdx;
      record.retired = true;
      ++result_.retiredProcesses;
      break;
    case DepartureReason::Rejected:
      record.arrivalCycle = now;
      record.rejected = true;
      ++result_.rejectedProcesses;
      break;
    case DepartureReason::Failed:
      record.failed = true;
      ++result_.faults.failedProcesses;
      break;
  }
  if (openWorkload_) {
    CohortStats& cohort = result_.cohorts[cohortOfProcess_[process]];
    switch (reason) {
      case DepartureReason::Completed:
      case DepartureReason::Retired:
        leaveSystem(process);
        // Feed the exit's sojourn into the admission controller's SLO
        // estimator (SloShed; a no-op state update for the other kinds).
        admission_.recordSojourn(now - arrivalCycle_[process]);
        cohort.completionCycle = std::max(cohort.completionCycle, now);
        cohort.totalLatencyCycles += now - arrivalCycle_[process];
        if (reason == DepartureReason::Retired) ++cohort.retiredCount;
        break;
      case DepartureReason::Rejected:
        // Never entered the system: no onExit, no sojourn. arrived_
        // stays false, so the release below can never make it ready
        // even when its own predecessors later complete.
        ++cohort.rejectedCount;
        break;
      case DepartureReason::Failed:
        // The crash departure already removed the process from the
        // live set (handleCrash; a shed retry was never readmitted),
        // so only the terminal accounting happens here. Failed
        // processes never sojourned — they are excluded from the
        // percentiles and the SLO estimator, like rejected ones.
        ++cohort.failedCount;
        break;
    }
  }
  // Dependents are released on every terminal departure: a retired,
  // rejected or permanently failed producer must not strand its
  // consumers (they run against whatever data exists — the simulation
  // models timing, not values).
  for (const ProcessId succ : workload_->graph.successors(process)) {
    check(remainingPreds_[succ] > 0, "MpsocSimulator: dependence accounting");
    if (--remainingPreds_[succ] == 0 && arrived_[succ]) {
      announceReady(succ);
    }
  }
  // Conservation after every departure: a double departure or one that
  // skipped its reason's accounting fires at the event, not at the end
  // of the run (the ForTest skew proves the checker is live).
  LAPS_AUDIT(audit::departureConservation(
      departedCount_ + auditDepartureSkewForTest_, departedCompleted_,
      static_cast<std::size_t>(result_.rejectedProcesses),
      static_cast<std::size_t>(result_.retiredProcesses),
      static_cast<std::size_t>(result_.faults.failedProcesses)));
}

void MpsocSimulator::announceReady(ProcessId process) {
  if (readyAnnounced_[process]) return;
  readyAnnounced_[process] = true;
  policy_->onReady(process);
}

void MpsocSimulator::takeCoreDown(std::size_t coreIdx, std::int64_t now,
                                  bool permanent) {
  Core& core = cores_[coreIdx];
  // Only idle cores go down directly (a busy core's fault waits at
  // Core::pendingFault until its segment boundary, where current has
  // already been cleared and freeAt set to now — zero idle here).
  result_.coreIdleCycles[coreIdx] += now - core.freeAt;
  core.freeAt = now;
  core.down = true;
  core.downSince = now;
  if (permanent) {
    core.permanentlyDown = true;
    ++result_.faults.coreFailures;
  } else {
    ++result_.faults.coreOutages;
    schedule(now + config_.faults->outageDownCycles, EventSource::Recovery,
             coreIdx);
  }
  policy_->onCoreDown(coreIdx);
}

void MpsocSimulator::applyFault(const FaultEvent& event, std::int64_t now) {
  // Targets are drawn at application time against the currently
  // eligible set; an event with no valid target draws nothing and is
  // counted suppressed, so enabling one fault class never shifts
  // another class's draws.
  switch (event.kind) {
    case FaultClass::CoreFailure: {
      // Eligible: cores that could still fail permanently. At least one
      // core must stay capable of running work, so a failure that would
      // wedge the platform is suppressed, not applied.
      std::vector<std::size_t> eligible;
      for (std::size_t c = 0; c < config_.coreCount; ++c) {
        if (!cores_[c].permanentlyDown &&
            cores_[c].pendingFault != PendingCoreFault::Failure) {
          eligible.push_back(c);
        }
      }
      if (eligible.size() <= 1) {
        ++result_.faults.faultsSuppressed;
        return;
      }
      const std::size_t c =
          eligible[faultTargetRng_.below(eligible.size())];
      Core& core = cores_[c];
      if (core.pendingFault == PendingCoreFault::Outage) {
        // The harsher event wins: the pending outage never applies
        // (counted suppressed) and the boundary takes the core down
        // for good.
        core.pendingFault = PendingCoreFault::Failure;
        ++result_.faults.faultsSuppressed;
      } else if (core.down) {
        // Already transiently down: the failure makes it permanent.
        // The policy heard onCoreDown at the outage and simply never
        // hears onCoreUp; the queued recovery is dropped when popped.
        core.permanentlyDown = true;
        ++result_.faults.coreFailures;
      } else if (core.current) {
        core.pendingFault = PendingCoreFault::Failure;
      } else {
        takeCoreDown(c, now, /*permanent=*/true);
      }
      return;
    }
    case FaultClass::CoreOutage: {
      // Eligible: up cores with no fault already pending.
      std::vector<std::size_t> eligible;
      for (std::size_t c = 0; c < config_.coreCount; ++c) {
        const Core& core = cores_[c];
        if (!core.down && core.pendingFault == PendingCoreFault::None) {
          eligible.push_back(c);
        }
      }
      if (eligible.empty()) {
        ++result_.faults.faultsSuppressed;
        return;
      }
      const std::size_t c =
          eligible[faultTargetRng_.below(eligible.size())];
      if (cores_[c].current) {
        cores_[c].pendingFault = PendingCoreFault::Outage;
      } else {
        takeCoreDown(c, now, /*permanent=*/false);
      }
      return;
    }
    case FaultClass::ProcessCrash: {
      // Eligible: cores running a process not already doomed to crash
      // at this boundary (a second crash of the same segment changes
      // nothing — all progress is lost either way).
      std::vector<std::size_t> eligible;
      for (std::size_t c = 0; c < config_.coreCount; ++c) {
        if (cores_[c].current && !cores_[c].crashPending) eligible.push_back(c);
      }
      if (eligible.empty()) {
        ++result_.faults.faultsSuppressed;
        return;
      }
      cores_[eligible[faultTargetRng_.below(eligible.size())]].crashPending =
          true;
      return;
    }
  }
  fail("applyFault: unknown FaultClass");
}

void MpsocSimulator::handleCrash(ProcessId process, std::size_t coreIdx,
                                 std::int64_t now) {
  const RetryPolicy& retry = config_.faults->retry;
  ++result_.faults.processCrashes;
  ++result_.processes[process].crashes;
  ++crashCount_[process];
  // All progress is lost: the trace restarts from the beginning on the
  // next attempt, and the resume bookkeeping forgets the core (a
  // restart is a fresh run, not a migration).
  cursors_[process].reset();
  lastRanOn_[process].reset();
  migrationPenaltyDue_[process] = false;
  // Temporary departure: the process leaves the live set (the policy
  // hears onExit) and, if retried, re-enters through admission like
  // any other arrival. arrived_ drops first so the active-set audit
  // inside leaveSystem sees a consistent live set; dependents are NOT
  // released — the process may still complete on a retry.
  arrived_[process] = false;
  readyAnnounced_[process] = false;
  leaveSystem(process);
  if (crashCount_[process] > retry.maxAttempts) {
    markDeparted(process, coreIdx, now, DepartureReason::Failed);
  } else {
    schedule(
        now + retryBackoffCycles(retry, crashCount_[process], retryJitterRng_),
        EventSource::Retry, process);
    ++result_.faults.retriesScheduled;
  }
}

void MpsocSimulator::admitBatch(std::size_t batchIdx, std::int64_t now) {
  // Admission control first, then every admitted arrival is announced
  // before any readiness: replanning policies patch their plan with the
  // whole batch in view before the first dispatch decision against it,
  // and rejected processes are non-events to the policy.
  const ArrivalBatch& batch = arrivalBatches_[batchIdx];
  for (const ProcessId p : batch.members) {
    if (enterSystem(p)) {
      result_.processes[p].arrivalCycle = now;
    } else {
      markDeparted(p, 0, now, DepartureReason::Rejected);
    }
  }
  // announceReady's exactly-once guard matters here: an in-batch
  // rejection may have already released an admitted batch member via
  // markDeparted's dependent release.
  for (const ProcessId p : batch.members) {
    if (arrived_[p] && remainingPreds_[p] == 0) announceReady(p);
  }
}

SimResult MpsocSimulator::run() {
  const std::size_t n = workload_->graph.processCount();

  result_ = SimResult{};
  result_.processes.resize(n);
  for (ProcessId p = 0; p < n; ++p) result_.processes[p].id = p;
  result_.coreBusyCycles.assign(config_.coreCount, 0);
  result_.coreIdleCycles.assign(config_.coreCount, 0);

  hierarchy_ = std::make_shared<MemoryHierarchy>(
      config_.memory.memLatencyCycles, platform_, config_.coreCount,
      config_.memory.l1d.lineBytes);
  cores_.clear();
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    Core core;
    // The core index is the MemorySystem's NoC node, L1 registration
    // slot and sharer-mask bit.
    core.memory = std::make_unique<MemorySystem>(config_.memory, hierarchy_, c);
    cores_.push_back(std::move(core));
  }
  cursors_.assign(n, std::nullopt);
  completed_.assign(n, false);
  departedCount_ = 0;
  departedCompleted_ = 0;
  lastRanOn_.assign(n, std::nullopt);
  remainingPreds_.resize(n);
  std::vector<bool> running(n, false);

  // Open-workload state: arrival batches (cohort or per-process
  // granularity), per-process arrival bookkeeping, admission control,
  // and the incrementally-maintained live sharing matrix. Inert in
  // closed mode — the closed path below is untouched.
  openWorkload_ = config_.arrivals.has_value();
  arrived_.assign(n, !openWorkload_);
  readyAnnounced_.assign(n, false);
  arrivalCycle_.assign(n, 0);
  cohortOfProcess_.clear();
  cohortMembers_.clear();
  cohortArrival_.clear();
  arrivalBatches_.clear();
  admission_ = AdmissionController(config_.admission);
  inSystem_ = openWorkload_ ? 0 : n;
  runningCount_ = 0;
  if (!footprintsProvided_) footprints_.clear();
  liveSharing_ = SharingMatrix{};
  if (openWorkload_) {
    config_.arrivals->validate();
    const std::vector<TaskId> tasks = workload_->graph.tasks();
    check(!tasks.empty(), "MpsocSimulator: open workload has no tasks");
    cohortMembers_.resize(tasks.size());
    cohortOfProcess_.assign(n, 0);
    result_.cohorts.resize(tasks.size());
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      cohortMembers_[k] = workload_->graph.processesOfTask(tasks[k]);
      for (const ProcessId p : cohortMembers_[k]) cohortOfProcess_[p] = k;
      result_.cohorts[k].task = tasks[k];
      result_.cohorts[k].processCount = cohortMembers_[k].size();
    }
    if (config_.arrivals->granularity == ArrivalGranularity::Cohort) {
      // PR 5 semantics: one batch per cohort, all members together.
      cohortArrival_ = cohortArrivalCycles(*config_.arrivals, tasks.size());
      arrivalBatches_.resize(tasks.size());
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        arrivalBatches_[k] = ArrivalBatch{cohortArrival_[k], cohortMembers_[k]};
        for (const ProcessId p : cohortMembers_[k]) {
          arrivalCycle_[p] = cohortArrival_[k];
        }
      }
    } else {
      // Per-process streams: one batch per process, in process-id
      // order; a cohort's arrival is its first member's.
      const std::vector<std::int64_t> perProcess =
          processArrivalCycles(*config_.arrivals, n);
      arrivalBatches_.resize(n);
      cohortArrival_.assign(tasks.size(),
                            std::numeric_limits<std::int64_t>::max());
      for (ProcessId p = 0; p < n; ++p) {
        arrivalBatches_[p] = ArrivalBatch{perProcess[p], {p}};
        arrivalCycle_[p] = perProcess[p];
        std::int64_t& cohortArrival = cohortArrival_[cohortOfProcess_[p]];
        cohortArrival = std::min(cohortArrival, perProcess[p]);
      }
    }
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      // result_.processes[p].arrivalCycle is stamped by admitBatch —
      // every batch is eventually admitted (the event loop drains
      // arrivalBatches_ completely).
      result_.cohorts[k].arrivalCycle = cohortArrival_[k];
      result_.cohorts[k].completionCycle = cohortArrival_[k];
    }
    if (!footprintsProvided_) footprints_ = workload_->footprints();
    liveSharing_ = SharingMatrix::inactive(n);
  }

  // Fault injection (docs §13). Disabled — the default, including a
  // FaultPlan with every mean zero — no injection is ever queued, the
  // per-core and per-process fault state stays inert by value, and the
  // run is bit-identical to a fault-free engine.
  if (config_.faults) config_.faults->validate();
  const bool faultsActive =
      config_.faults.has_value() && config_.faults->enabled();
  std::optional<FaultTimeline> timeline;
  if (faultsActive) {
    check(openWorkload_,
          "MpsocConfig::faults requires an arrival schedule (open workload)");
    timeline.emplace(*config_.faults);
    faultTargetRng_ =
        Rng(faultStreamSeed(config_.faults->seed, FaultStream::Targets));
    retryJitterRng_ =
        Rng(faultStreamSeed(config_.faults->seed, FaultStream::RetryJitter));
  }
  crashCount_.assign(n, 0);
  migrationPenaltyDue_.assign(n, false);
  queue_ = {};
  pending_.fill(0);

  const SchedContext context{&workload_->graph,
                             openWorkload_ ? &liveSharing_ : sharing_,
                             config_.coreCount, workload_, space_,
                             hierarchy_->noc() ? &hierarchy_->noc()->topology()
                                               : nullptr};
  policy_->reset(context);
  for (ProcessId p = 0; p < n; ++p) {
    remainingPreds_[p] = workload_->graph.predecessors(p).size();
    if (!openWorkload_ && remainingPreds_[p] == 0) {
      announceReady(p);
    }
  }

  // Offers work to an idle core; returns true when a segment started.
  // A picked process whose lifetime already expired is retired on the
  // spot (it never gets another segment) and the policy is asked again —
  // lazy retirement at the scheduling boundary keeps every policy's
  // ready-queue bookkeeping valid without new obligations.
  const auto offer = [&](std::size_t coreIdx, std::int64_t now) {
    if (cores_[coreIdx].down) return false;  // a down core is never offered
    while (true) {
      const auto pick =
          policy_->pickNext(coreIdx, cores_[coreIdx].lastScheduled);
      if (!pick) return false;
      const ProcessId p = *pick;
      check(p < n, "scheduler picked an unknown process");
      check(!completed_[p], "scheduler picked a completed process");
      check(!running[p], "scheduler picked a process already running");
      check(arrived_[p], "scheduler picked a process that has not arrived");
      check(remainingPreds_[p] == 0, "scheduler picked a dependent process");
      if (deadline(p) <= now) {
        markDeparted(p, lastRanOn_[p].value_or(coreIdx), now,
                     DepartureReason::Retired);
        continue;
      }
      result_.coreIdleCycles[coreIdx] += now - cores_[coreIdx].freeAt;
      running[p] = true;
      ++runningCount_;
      schedule(runSegment(coreIdx, p, now), EventSource::Core, coreIdx);
      return true;
    }
  };
  const auto offerIdleCores = [&](std::int64_t now) {
    for (std::size_t c = 0; c < config_.coreCount; ++c) {
      if (!cores_[c].current) offer(c, now);
    }
  };

  // One queue orders every event by (cycle, source, id); EventSource's
  // declaration order is the equal-cycle drain order (docs §13).
  // Arrival batches and fault injections are produced one ahead —
  // popping one queues the next — while retries, recoveries and segment
  // ends are queued where they arise. A closed workload starts by
  // offering every core; an open one starts at its first arrival.
  if (openWorkload_) {
    schedule(arrivalBatches_[0].cycle, EventSource::Arrival, 0);
  } else {
    offerIdleCores(0);
  }
  if (timeline) schedule(timeline->peek().cycle, EventSource::Injection, 0);

  std::int64_t now = 0;
  EventSource lastSource = EventSource::Arrival;
  while (alive()) {
    const Event event = queue_.top();
    queue_.pop();
    --pending_[static_cast<std::size_t>(event.source)];
    // Popped (cycle, source) pairs never run backwards: time is
    // monotone, and equal-cycle events drain in the declared order.
    LAPS_AUDIT(audit::eventOrder(now, static_cast<int>(lastSource),
                                 event.cycle, static_cast<int>(event.source)));
    now = event.cycle;
    lastSource = event.source;
    switch (event.source) {
      case EventSource::Arrival:
        if (event.id + 1 < arrivalBatches_.size()) {
          schedule(arrivalBatches_[event.id + 1].cycle, EventSource::Arrival,
                   event.id + 1);
        }
        admitBatch(event.id, now);
        break;
      case EventSource::Retry: {
        // A retry re-enters through admission control like any other
        // arrival, so QueueCap/SloShed can shed it under overload — a
        // shed retry permanently fails the process. An admitted retry
        // keeps its ORIGINAL arrival cycle: sojourn and the lifetime
        // deadline are measured from when the request first entered, so
        // crashes cannot launder SLO time.
        const auto p = static_cast<ProcessId>(event.id);
        if (!enterSystem(p)) {
          ++result_.faults.retriesShed;
          markDeparted(p, 0, now, DepartureReason::Failed);
        } else if (remainingPreds_[p] == 0) {
          announceReady(p);
        }
        break;
      }
      case EventSource::Recovery: {
        // A core permanently failed mid-outage never recovers; its queued
        // recovery is simply dropped.
        Core& core = cores_[event.id];
        if (!core.permanentlyDown) {
          core.down = false;
          result_.faults.coreDownCycles +=
              static_cast<std::uint64_t>(now - core.downSince);
          ++result_.faults.coreRecoveries;
          core.freeAt = now;
          core.memory->flushAll();  // the outage lost the caches
          core.lastScheduled.reset();
          policy_->onCoreUp(event.id);
        }
        break;
      }
      case EventSource::Injection: {
        const FaultEvent fault = timeline->pop();
        schedule(timeline->peek().cycle, EventSource::Injection, 0);
        // onCoreDown may re-home planned work onto cores that were idle
        // for lack of it; the offer below picks it up.
        applyFault(fault, now);
        break;
      }
      case EventSource::Core: {
        const std::size_t coreIdx = event.id;
        Core& core = cores_[coreIdx];
        const ProcessId p = *core.current;
        core.current.reset();
        core.freeAt = now;
        running[p] = false;
        --runningCount_;
        const bool displaced = core.pendingFault != PendingCoreFault::None;
        if (core.crashPending) {
          // The crash point precedes the boundary, so it wins even over a
          // finished trace (documented approximation, docs §13).
          core.crashPending = false;
          handleCrash(p, coreIdx, now);
        } else if (cursors_[p]->done()) {
          markDeparted(p, coreIdx, now, DepartureReason::Completed);
        } else if (deadline(p) <= now) {
          // The lifetime cap cut this segment: the process overstayed.
          markDeparted(p, coreIdx, now, DepartureReason::Retired);
        } else {
          ++result_.preemptions;
          policy_->onPreempt(p);
          if (displaced) {
            // Displaced by the core going down: progress is kept, but the
            // resume pays the migration penalty (charged in runSegment).
            migrationPenaltyDue_[p] = true;
            ++result_.faults.faultMigrations;
          }
        }
        if (displaced) {
          const bool permanent = core.pendingFault == PendingCoreFault::Failure;
          core.pendingFault = PendingCoreFault::None;
          takeCoreDown(coreIdx, now, permanent);
        }
        // The finishing core first, then (below) any core that was
        // starved — new readiness may have unblocked them.
        offer(coreIdx, now);
        break;
      }
    }
    offerIdleCores(now);
  }

  check(departedCount_ == n,
        "MpsocSimulator: deadlock — " + std::to_string(n - departedCount_) +
            " process(es) never completed (policy stranded work)");

  result_.makespanCycles = now;
  result_.seconds = config_.cyclesToSeconds(now);
  result_.policy = policy_->stats();
  if (openWorkload_) {
    // Exact sojourn order statistics, per cohort and global, over the
    // admitted processes (rejected ones never sojourned). No sampling:
    // every sojourn is ranked.
    const auto fill = [](SojournPercentiles& out,
                         std::vector<std::int64_t>& sojourns) {
      out.samples = sojourns.size();
      if (sojourns.empty()) return;
      out.p50 = percentileNearestRank(sojourns, 50);
      out.p95 = percentileNearestRank(sojourns, 95);
      out.p99 = percentileNearestRank(sojourns, 99);
      LAPS_AUDIT(audit::percentileOrdering(out.p50, out.p95, out.p99,
                                           out.samples));
    };
    std::vector<std::int64_t> global;
    global.reserve(n);
    std::vector<std::int64_t> perCohort;
    for (std::size_t k = 0; k < result_.cohorts.size(); ++k) {
      perCohort.clear();
      for (const ProcessId p : cohortMembers_[k]) {
        const ProcessRunRecord& record = result_.processes[p];
        if (record.rejected || record.failed) continue;
        const std::int64_t sojourn =
            record.completionCycle - record.arrivalCycle;
        perCohort.push_back(sojourn);
        global.push_back(sojourn);
      }
      fill(result_.cohorts[k].sojourn, perCohort);
      // Per-cohort admission identity: every member is a sojourn
      // sample, was rejected, or was permanently failed.
      LAPS_AUDIT(audit::admissionIdentity(
          result_.cohorts[k].sojourn.samples, result_.cohorts[k].rejectedCount,
          result_.cohorts[k].failedCount, result_.cohorts[k].processCount));
    }
    fill(result_.sojourn, global);
    LAPS_AUDIT(audit::admissionIdentity(
        result_.sojourn.samples,
        static_cast<std::size_t>(result_.rejectedProcesses),
        static_cast<std::size_t>(result_.faults.failedProcesses), n));
  }
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    result_.coreBusyCycles[c] = cores_[c].busyCycles;
    if (cores_[c].down) {
      // A core that ends the run down was unavailable, not idle, since
      // it went down.
      result_.faults.coreDownCycles +=
          static_cast<std::uint64_t>(now - cores_[c].downSince);
    } else {
      result_.coreIdleCycles[c] += now - cores_[c].freeAt;
    }
    result_.dcacheTotal.accumulate(cores_[c].memory->dcache().stats());
    result_.icacheTotal.accumulate(cores_[c].memory->icache().stats());
    result_.dataMisses.accumulate(cores_[c].memory->dataMissBreakdown());
    result_.replayPath.accumulate(cores_[c].memory->replayPathStats());
  }
  if (const SharedL2* l2 = hierarchy_->l2()) {
    result_.sharedL2Enabled = true;
    result_.l2Total = l2->stats();
    result_.l2BankWaitCycles = l2->bankWaitCycles();
    result_.inclusionWritebacks = hierarchy_->inclusionWritebacks();
  }
  if (const MemoryBus* bus = hierarchy_->bus()) {
    result_.busTransactions = bus->stats().transactions;
    result_.busWaitCycles = bus->stats().waitCycles;
  }
  if (const NocFabric* noc = hierarchy_->noc()) {
    result_.nocEnabled = true;
    result_.nocTransfers = noc->stats().transfers;
    result_.nocPostedTransfers = noc->stats().postedTransfers;
    result_.nocHopCycles = noc->stats().hopCycles;
    result_.nocLinkWaitCycles = noc->stats().linkWaitCycles;
  }
  if (const DirectoryStats* dir = hierarchy_->directory()) {
    result_.directoryEnabled = true;
    result_.directoryInvalidationsSent = dir->invalidationsSent;
    result_.directoryInvalidationsFiltered = dir->invalidationsFiltered;
  }
  return result_;
}

}  // namespace laps
