#pragma once
/// \file engine.h
/// \brief The discrete-event MPSoC simulator (Simics substitute).
///
/// Execution model (documented approximations in docs/ARCHITECTURE.md
/// §§6-7):
///  * every core owns a private MemorySystem (split L1 I/D); cache
///    contents persist across context switches — the effect the paper's
///    scheduler exploits;
///  * all cores share one MemoryHierarchy below the L1s: flat fixed-
///    latency memory by default (the paper platform), optionally a
///    shared banked L2, a bounded off-chip bus or a NoC
///    (MpsocConfig::platform), in which case a miss's latency
///    depends on the absolute cycle it issues and the other cores'
///    traffic;
///  * a process trace step costs: instruction-fetch latency + data-access
///    latency (2 on hit, 2+75 on miss with Table 2 defaults) + its
///    compute cycles;
///  * one event queue drives the run, popped in (cycle, source, id)
///    order; EventSource declares the equal-cycle drain order —
///    arrivals, crash retries, outage recoveries, fault injections,
///    then segment ends (docs §13);
///  * scheduling decisions happen when a core goes idle (process finished
///    or quantum expired) and when new processes become ready;
///  * with an arrival schedule (MpsocConfig::arrivals, docs §§9-10) the
///    workload is open: task cohorts or individual processes are
///    admitted mid-simulation (the policy hears onArrival, the live
///    sharing matrix gains the row incrementally), processes that
///    outlive their deadline are retired at the next scheduling
///    boundary (onExit; dependents are released as on completion), and
///    SimResult reports per-cohort latency plus exact p50/p95/p99
///    sojourn order statistics;
///  * admission control (MpsocConfig::admission, docs §10) is consulted
///    once per arriving process before the policy hears anything: a
///    rejected process is a non-event to the policy, releases its
///    dependents immediately, and is counted in
///    SimResult::rejectedProcesses / CohortStats::rejectedCount;
///  * a preempted process resumes where it stopped, on any core;
///  * context switches cost MpsocConfig::switchCycles, charged outside
///    the quantum (overhead must not shrink the policy's time slice) and
///    reported separately from useful work (SimResult::switchOverheadCycles);
///  * with a FaultPlan (MpsocConfig::faults, docs §13; requires an
///    arrival schedule) the platform is unreliable: seeded fault
///    injections join the event queue, and a core carries its own fault
///    state (inert by value when faults are off). A failing or
///    transiently-outaged core goes down at its next segment boundary
///    (immediately when idle); its displaced process
///    is preempted with progress kept and pays a migration penalty on
///    resume, while a down core is never offered work again until it
///    recovers (cold). A crashed process loses all progress, leaves the
///    system through the same departure path as lifetime retirement,
///    and re-enters as a fresh arrival after a seeded exponential
///    backoff — admission control can shed the retry; a process out of
///    retry budget is permanently failed (SimResult::faults).
///
/// Traces replay run-length encoded (sim/replay.h), bit-identical to a
/// one-step-at-a-time replay. The simulation is fully deterministic:
/// identical inputs (workload, layout, policy, config) produce identical
/// results.

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "layout/address_space.h"
#include "sched/scheduler.h"
#include "sim/config.h"
#include "sim/result.h"
#include "taskgraph/graph.h"
#include "trace/cursor.h"

namespace laps {

/// Runs one workload under one scheduling policy on the simulated MPSoC.
class MpsocSimulator {
 public:
  /// \p workload, \p space and \p policy must outlive the simulator.
  /// \p sharing is handed to the policy (may be empty for policies that
  /// ignore it, but sizes must match when present).
  MpsocSimulator(const Workload& workload, const AddressSpace& space,
                 const SharingMatrix& sharing, SchedulerPolicy& policy,
                 MpsocConfig config);

  /// Open workloads: supply precomputed per-process footprints so run()
  /// does not recompute them for the incremental sharing-matrix
  /// maintenance (the experiment harness already has them). Must cover
  /// every process of the workload; ignored in closed mode.
  void provideFootprints(std::vector<Footprint> footprints);

  /// Simulates to completion and returns the metrics. Throws laps::Error
  /// if the policy strands work (deadlock) or schedules an ineligible
  /// process.
  SimResult run();

  /// \name Audit-liveness test seams
  /// Prove the engine's compiled-in fault checkers fire (see
  /// tests/sim/fault_test.cpp): the seams skew the checked state without
  /// touching the simulation itself, so an audit build must abort while
  /// a default build still returns the unperturbed result.
  /// @{
  /// coreUpForDispatch sees \p core as down on its next dispatch.
  void auditPretendCoreDownForTest(std::size_t core) {
    auditPretendDownCoreForTest_ = core;
  }
  /// departureConservation sees \p skew phantom departures.
  void auditSkewDepartureCountForTest(std::size_t skew) {
    auditDepartureSkewForTest_ = skew;
  }
  /// @}

 private:
  /// A fault aimed at a busy core, waiting for its segment boundary.
  /// Failure overrides a pending Outage (the harsher event wins).
  enum class PendingCoreFault : std::uint8_t { None, Outage, Failure };

  struct Core {
    std::unique_ptr<MemorySystem> memory;
    std::optional<ProcessId> current;       // running this segment
    std::optional<ProcessId> lastScheduled; // last process that ran here
    std::int64_t freeAt = 0;                // cycle the core becomes free
    std::int64_t busyCycles = 0;
    /// Fault state: inert by value when fault injection is off (a core
    /// that never faults is never down and has nothing pending).
    bool down = false;             // unavailable now
    bool permanentlyDown = false;  // never recovers
    std::int64_t downSince = 0;
    PendingCoreFault pendingFault = PendingCoreFault::None;
    bool crashPending = false;     // crash its process at the boundary
  };

  /// The sources of run()'s event queue, declared in their equal-cycle
  /// drain order (docs/ARCHITECTURE.md §13).
  enum class EventSource : std::uint8_t {
    Arrival,    ///< id: arrival batch index
    Retry,      ///< id: crashed process re-entering
    Recovery,   ///< id: core whose outage ends
    Injection,  ///< id: 0; the payload is the fault timeline's head
    Core,       ///< id: core whose segment ends
  };
  static constexpr std::size_t kEventSources =
      static_cast<std::size_t>(EventSource::Core) + 1;

  /// Popped in (cycle, source, id) order: ties within a source break on
  /// the smaller id, so equal-cycle events process deterministically.
  struct Event {
    std::int64_t cycle = 0;
    EventSource source = EventSource::Arrival;
    std::size_t id = 0;
    friend auto operator<=>(const Event&, const Event&) = default;
  };

  /// Why a process terminally left the system. Every terminal departure
  /// goes through markDeparted with exactly one reason, which is what
  /// the departure-conservation audit counts (docs/ARCHITECTURE.md §13).
  enum class DepartureReason {
    Completed,  ///< ran its trace to the end
    Retired,    ///< overstayed its lifetime deadline
    Rejected,   ///< turned away by admission control at arrival
    Failed,     ///< crash retry budget exhausted, or retry shed
  };

  /// Executes one segment of \p process on \p core starting at \p now;
  /// returns the segment's end cycle.
  std::int64_t runSegment(std::size_t coreIdx, ProcessId process,
                          std::int64_t now);

  /// The single terminal-departure path: marks \p process gone at \p now
  /// for \p reason, does the per-reason accounting, and releases its
  /// dependents — a retired, rejected or permanently failed producer
  /// must not strand its consumers. \p coreIdx is recorded as the last
  /// core for Completed/Retired (ignored otherwise — the process was
  /// not on a core when it departed).
  void markDeparted(ProcessId process, std::size_t coreIdx, std::int64_t now,
                    DepartureReason reason);

  /// Open workloads: removes \p process from the live set — the policy
  /// hears onExit, the live sharing matrix drops the row, inSystem_
  /// falls. Shared by terminal departures out of the system and the
  /// *temporary* crash departure (which may re-enter via a retry).
  void leaveSystem(ProcessId process);

  /// Queues \p source's event \p id at \p cycle.
  void schedule(std::int64_t cycle, EventSource source, std::size_t id) {
    queue_.push(Event{cycle, source, id});
    ++pending_[static_cast<std::size_t>(source)];
  }

  /// True while an arrival, a retry or a segment end is pending, or a
  /// recovery while undeparted processes remain (an all-cores-down
  /// platform must wake up to finish them). A queued injection never
  /// keeps the run alive: the fault timeline is infinite.
  [[nodiscard]] bool alive() const;

  /// Open workloads: \p process asks to enter the live set, as a new
  /// arrival or a crash retry. Admission control decides; when admitted
  /// the policy hears onArrival and the live sharing matrix gains the
  /// row. Returns false when refused. The mirror of leaveSystem.
  bool enterSystem(ProcessId process);

  /// Handles arrival batch \p batchIdx at \p now (one cohort in cohort
  /// granularity, one process in per-process granularity): consults
  /// admission control per process, activates admitted rows in the live
  /// sharing matrix, announces onArrival for every admitted process
  /// before any onReady.
  void admitBatch(std::size_t batchIdx, std::int64_t now);

  /// Applies injected fault \p event at \p now: picks the target from
  /// the Targets stream among the currently eligible cores/processes,
  /// defers busy-core faults to the segment boundary
  /// (Core::pendingFault/crashPending), and counts events with no valid
  /// target as suppressed.
  void applyFault(const FaultEvent& event, std::int64_t now);

  /// Takes idle, up core \p coreIdx down at \p now (permanently, or
  /// transiently with a recovery queued). Busy cores reach here at
  /// their segment boundary, after the displaced process was handled.
  void takeCoreDown(std::size_t coreIdx, std::int64_t now, bool permanent);

  /// \p process crashed at its segment boundary on \p coreIdx: all
  /// progress is lost, the process leaves the live set, and either a
  /// retry is scheduled (seeded exponential backoff) or — with the
  /// budget exhausted — it departs permanently failed.
  void handleCrash(ProcessId process, std::size_t coreIdx, std::int64_t now);

  /// Fires onReady(\p process) exactly once per stay in the system
  /// (guarded by readyAnnounced_; a crash departure resets the guard so
  /// a readmitted retry is announced afresh). The multi-path release
  /// logic — batch admission, departure release — funnels through here.
  void announceReady(ProcessId process);

  /// The cycle that never comes: an unlimited deadline.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  /// Lifetime deadline of \p process (kNever when unlimited).
  [[nodiscard]] std::int64_t deadline(ProcessId process) const;

  const Workload* workload_;
  const AddressSpace* space_;
  const SharingMatrix* sharing_;
  SchedulerPolicy* policy_;
  MpsocConfig config_;
  /// The effective shared-level descriptor (config_.resolvedPlatform(),
  /// validated once in the constructor) — the only platform shape the
  /// engine reads after construction.
  PlatformConfig platform_;

  std::shared_ptr<MemoryHierarchy> hierarchy_;  // shared by all cores
  std::vector<Core> cores_;
  std::vector<std::optional<ProcessTraceCursor>> cursors_;
  std::vector<std::size_t> remainingPreds_;
  std::vector<std::optional<std::size_t>> lastRanOn_;  // migration detection
  std::vector<bool> completed_;       // terminally departed (any reason)
  std::size_t departedCount_ = 0;     // terminal departures, all reasons
  std::size_t departedCompleted_ = 0; // natural completions among them
  SimResult result_;

  /// \name Open-workload state (inert when config_.arrivals is empty)
  /// @{
  bool openWorkload_ = false;
  std::vector<bool> arrived_;
  std::vector<bool> readyAnnounced_;           // onReady fired already
  std::vector<std::int64_t> arrivalCycle_;     // per process
  std::vector<std::size_t> cohortOfProcess_;   // index into cohorts
  std::vector<std::vector<ProcessId>> cohortMembers_;
  std::vector<std::int64_t> cohortArrival_;
  /// One arrival event: the processes admitted together at a cycle (a
  /// whole cohort, or a single process in per-process granularity).
  struct ArrivalBatch {
    std::int64_t cycle = 0;
    std::vector<ProcessId> members;
  };
  std::vector<ArrivalBatch> arrivalBatches_;
  AdmissionController admission_;
  std::size_t inSystem_ = 0;      // admitted, not yet exited
  std::size_t runningCount_ = 0;  // currently inside a segment
  /// Per-process footprints for the incremental sharing-matrix
  /// maintenance: provideFootprints()'s copy, else computed per run.
  std::vector<Footprint> footprints_;
  bool footprintsProvided_ = false;
  /// The sharing matrix the policy actually sees in open mode: rows are
  /// activated on arrival (SharingMatrix::addProcess) and cleared on
  /// exit, so the policy only ever reads values of live processes —
  /// identical, for those, to the full precomputed matrix.
  SharingMatrix liveSharing_;
  /// @}

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::array<std::size_t, kEventSources> pending_{};  // queued, per source

  /// \name Fault-injection state (inert when config_.faults is disabled)
  /// @{
  Rng faultTargetRng_{0};   ///< FaultStream::Targets
  Rng retryJitterRng_{0};   ///< FaultStream::RetryJitter
  std::vector<std::uint32_t> crashCount_;   // per process
  std::vector<bool> migrationPenaltyDue_;   // per process: charge on resume
  /// @}

  /// \name Audit test seams (see the public ...ForTest setters)
  /// @{
  std::optional<std::size_t> auditPretendDownCoreForTest_;
  std::size_t auditDepartureSkewForTest_ = 0;
  /// @}
};

}  // namespace laps
