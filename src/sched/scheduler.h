#pragma once
/// \file scheduler.h
/// \brief The SchedulerPolicy interface and the SchedulerKind catalogue.
///
/// The concrete strategies live elsewhere: the paper's RS/RRS baselines
/// and the classic extensions in basic.h, LS/LSM in locality.h, and the
/// online variant in dynamic_locality.h; factory.h constructs any of
/// them from a SchedulerKind.
///
/// The simulation engine drives a SchedulerPolicy through six events:
///  * onArrival(p)    — p entered the system (open workloads only);
///  * onReady(p)      — p arrived and all its predecessors completed;
///  * pickNext(core)  — the core is idle, choose its next process;
///  * onPreempt(p)    — p's quantum expired, p was suspended;
///  * onComplete(p)   — p finished (policies tracking the running set);
///  * onExit(p)       — p left the system: completion or lifetime
///                      retirement (open workloads).
/// Policies with a quantum() are preemptive (the paper's RRS); the others
/// run every process to completion.
///
/// A process turned away by admission control (MpsocConfig::admission)
/// is a non-event: no onArrival, no onReady, never offered by pickNext.
/// Policies need no rejection handling — an admitted process's
/// dependence on a rejected one is resolved by the engine before any
/// onReady fires for it.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "region/sharing.h"
#include "taskgraph/graph.h"

namespace laps {

class AddressSpace;   // layout/address_space.h
class LocalityScore;  // sched/locality_score.h
class NocTopology;    // cache/noc.h

/// The schedulers evaluated in the paper (§4) plus the extensions this
/// library adds (paper §6 future work: "compare to other OS scheduling
/// strategies").
enum class SchedulerKind {
  Random,           ///< RS: random core assignment, run to completion
  RoundRobin,       ///< RRS: preemptive FCFS, common ready queue
  Locality,         ///< LS: Fig. 3 locality-aware plan
  LocalityMapping,  ///< LSM: LS plus Fig. 4/5 data re-layout
  Fcfs,             ///< extension: non-preemptive first-come-first-served
  Sjf,              ///< extension: shortest job first (estimated cycles)
  CriticalPath,     ///< extension: longest-critical-path-first
  DynamicLocality,  ///< extension: online greedy locality (no static plan)
  L2ContentionAware,  ///< extension: DLS minus shared-L2 set conflicts
  OnlineLocality,   ///< extension: LS plan patched incrementally on
                    ///< arrival/exit (open workloads)
};

/// Every SchedulerKind, in declaration order. Tests iterate this to keep
/// to_string/makeScheduler exhaustive; extend it together with the enum.
inline constexpr std::array<SchedulerKind, 10> kAllSchedulerKinds{
    SchedulerKind::Random,          SchedulerKind::RoundRobin,
    SchedulerKind::Locality,        SchedulerKind::LocalityMapping,
    SchedulerKind::Fcfs,            SchedulerKind::Sjf,
    SchedulerKind::CriticalPath,    SchedulerKind::DynamicLocality,
    SchedulerKind::L2ContentionAware, SchedulerKind::OnlineLocality,
};
// Ties the catalogue's size to the last enumerator: adding a kind
// without extending kAllSchedulerKinds fails to compile here instead of
// letting the exhaustiveness tests pass vacuously.
static_assert(static_cast<std::size_t>(SchedulerKind::OnlineLocality) + 1 ==
                  kAllSchedulerKinds.size(),
              "kAllSchedulerKinds is out of sync with SchedulerKind");

/// Compile-time short stable name of a kind ("RS", "RRS", "LS", ...).
/// The single source of truth: to_string returns exactly this, and the
/// static_asserts below prove every catalogued kind has a distinct
/// non-empty name — a new enum value without a case here fails the
/// build (-Wswitch under LAPSCHED_WERROR, the empty-name assert
/// otherwise) instead of drifting until a test notices.
[[nodiscard]] constexpr std::string_view schedulerKindName(
    SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Random: return "RS";
    case SchedulerKind::RoundRobin: return "RRS";
    case SchedulerKind::Locality: return "LS";
    case SchedulerKind::LocalityMapping: return "LSM";
    case SchedulerKind::Fcfs: return "FCFS";
    case SchedulerKind::Sjf: return "SJF";
    case SchedulerKind::CriticalPath: return "CPATH";
    case SchedulerKind::DynamicLocality: return "DLS";
    case SchedulerKind::L2ContentionAware: return "CALS";
    case SchedulerKind::OnlineLocality: return "OLS";
  }
  return {};
}

namespace detail {
/// The catalogue lists every enumerator exactly once (it is a
/// permutation of [0, size)).
constexpr bool schedulerCatalogueCoversEnum() {
  std::array<bool, kAllSchedulerKinds.size()> seen{};
  for (const SchedulerKind kind : kAllSchedulerKinds) {
    const auto index = static_cast<std::size_t>(kind);
    if (index >= seen.size() || seen[index]) return false;
    seen[index] = true;
  }
  return true;
}

/// Every catalogued kind has a non-empty name, and no two share one.
constexpr bool schedulerNamesDistinct() {
  for (std::size_t i = 0; i < kAllSchedulerKinds.size(); ++i) {
    const std::string_view name = schedulerKindName(kAllSchedulerKinds[i]);
    if (name.empty()) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (name == schedulerKindName(kAllSchedulerKinds[j])) return false;
    }
  }
  return true;
}
}  // namespace detail

static_assert(detail::schedulerCatalogueCoversEnum(),
              "kAllSchedulerKinds must list every SchedulerKind exactly once");
static_assert(detail::schedulerNamesDistinct(),
              "schedulerKindName must give every catalogued SchedulerKind a "
              "distinct non-empty name");

/// Short stable name ("RS", "RRS", "LS", "LSM", ...) — the runtime
/// std::string form of schedulerKindName.
[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Everything a policy may consult when (re)initialized. The workload
/// and address space are optional richer context (null when driving a
/// policy outside the simulator): footprint-derived analyses — e.g. the
/// L2 set-conflict matrix of L2ContentionAwareScheduler — need them.
struct SchedContext {
  const ExtendedProcessGraph* graph = nullptr;
  const SharingMatrix* sharing = nullptr;
  std::size_t coreCount = 0;
  const Workload* workload = nullptr;
  const AddressSpace* space = nullptr;
  /// Interconnect geometry when the platform routes misses over a NoC
  /// (cache/noc.h); null on flat/bus platforms. Appended last so every
  /// pre-NoC aggregate initializer still compiles (and value-initializes
  /// this to null — distance-blind, the legacy behavior).
  const NocTopology* topology = nullptr;
};

/// Counters a policy may expose about its own decision work (all zero
/// for policies that do not override stats()). Observational only: the
/// engine copies them into SimResult after the run; nothing feeds back
/// into scheduling, so reporting them cannot change a single decision.
struct PolicyStats {
  std::uint64_t decisions = 0;  ///< pickNext calls that returned a process
  std::uint64_t rebuilds = 0;   ///< full plan rebuilds (replanning policies)
  std::uint64_t patches = 0;    ///< incremental plan patches
  std::uint64_t steals = 0;     ///< picks outside the core's own plan
  std::uint64_t offloads = 0;   ///< orphans re-homed off a downed core
};

/// Dynamic scheduling policy; implementations must be deterministic.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Called once before simulation with the full context.
  virtual void reset(const SchedContext& context) = 0;

  /// A process became dependence-free (fires exactly once per process).
  virtual void onReady(ProcessId process) = 0;

  /// Core \p core is idle; \p previous is the process that last ran on
  /// it. Return the next process (must have been announced via onReady
  /// and not yet run to completion) or nullopt to leave the core idle
  /// until the next completion event.
  virtual std::optional<ProcessId> pickNext(
      std::size_t core, std::optional<ProcessId> previous) = 0;

  /// A running process was suspended after its quantum; it is immediately
  /// eligible to run again (possibly on another core).
  virtual void onPreempt(ProcessId process) { onReady(process); }

  /// A process ran to completion. Default: ignored — only policies that
  /// track the currently running set (e.g. contention-aware ones) care.
  virtual void onComplete(ProcessId process) { (void)process; }

  /// Open workloads: \p process entered the system. Fires before any
  /// onReady for it; never fires in closed workloads (so overriding it
  /// cannot change closed-workload behavior). Default: ignored.
  virtual void onArrival(ProcessId process) { (void)process; }

  /// Open workloads: \p process left the system — it ran to completion
  /// (after onComplete), was retired at its lifetime deadline, or
  /// crashed under fault injection (no onComplete in either of the
  /// latter cases; the process may have been running or waiting).
  /// Policies holding per-process state (running sets, plans, queues)
  /// drop it here. A crashed process that retries re-enters through a
  /// fresh onArrival, so exit-then-arrival for the same id is legal in
  /// fault runs. Default: ignored.
  virtual void onExit(ProcessId process) { (void)process; }

  /// Fault injection: core \p core went down (permanently or for a
  /// transient outage). The engine never offers a down core work, so
  /// this hook exists for bookkeeping — replanning policies re-home the
  /// work they had planned for the core. Default: ignored.
  virtual void onCoreDown(std::size_t core) { (void)core; }

  /// Fault injection: core \p core recovered from a transient outage
  /// (with cold caches) and is eligible for dispatch again. Default:
  /// ignored.
  virtual void onCoreUp(std::size_t core) { (void)core; }

  /// Quantum in cycles; nullopt = non-preemptive.
  [[nodiscard]] virtual std::optional<std::int64_t> quantum() const {
    return std::nullopt;
  }

  /// Decision-work counters since reset() (see PolicyStats). Default:
  /// all zero.
  [[nodiscard]] virtual PolicyStats stats() const { return {}; }

  /// The unified locality-score arithmetic this policy dispatches with
  /// (sched/locality_score.h: sharing term, optional L2-conflict term,
  /// optional hop-distance term), or null for policies that do not
  /// score locality. One definition of the arithmetic shared by DLS,
  /// CALS and OLS — harnesses introspect it to verify the policies
  /// stopped reimplementing score math (tests/sched/
  /// locality_score_test.cpp; decision-identity is pinned by the PR 8
  /// checksum baseline).
  [[nodiscard]] virtual const LocalityScore* localityScore() const {
    return nullptr;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace laps
