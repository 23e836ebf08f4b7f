#pragma once
/// \file faults.h
/// \brief Deterministic fault injection for the MPSoC engine
///        (docs/ARCHITECTURE.md §13).
///
/// A production service must keep meeting its sojourn SLOs when a core
/// dies or a request crashes mid-flight; the paper's platform assumes
/// neither ever happens. A FaultPlan makes the simulated platform
/// unreliable in a fully seeded way: three independent event classes —
/// permanent core failure, transient core outage (down for a fixed
/// number of cycles, then recovered cold), and process crash (the
/// running process loses its progress and re-executes under a
/// RetryPolicy) — each arriving at integer-geometric (memoryless)
/// inter-fault distances drawn by the same Q0.64 survival-inversion
/// machinery as sim/arrivals' Exponential gaps.
///
/// Determinism: every gap, target draw and backoff jitter comes from a
/// sub-stream derived from FaultPlan::seed (see FaultStream), consumed
/// through integer-only laps::Rng helpers — a (workload, plan) pair
/// injects the identical fault sequence on every platform, compiler and
/// thread count. Disabled (the default: every mean zero), the engine
/// never constructs any of this and takes the exact fault-free code
/// path, so all committed baselines stay byte-identical.

#include <cstdint>
#include <vector>

#include "sim/arrivals.h"
#include "util/rng.h"

namespace laps {

/// The three injected event classes, in tie-break priority order: when
/// several classes fire at the same cycle, they apply in enum order.
enum class FaultClass {
  CoreFailure,   ///< a core goes down permanently
  CoreOutage,    ///< a core goes down, recovers after outageDownCycles
  ProcessCrash,  ///< the running process loses its progress
};

/// Short stable name ("CoreFailure", "CoreOutage", "ProcessCrash").
[[nodiscard]] const char* to_string(FaultClass kind);

/// The independent Rng sub-streams derived from FaultPlan::seed, in
/// derivation order (faultStreamSeed). Splitting per purpose keeps the
/// classes uncorrelated and means enabling one class never shifts the
/// draws of another.
enum class FaultStream {
  FailureGaps,  ///< inter-failure distances
  OutageGaps,   ///< inter-outage distances
  CrashGaps,    ///< inter-crash distances
  Targets,      ///< which core / which running process is hit
  RetryJitter,  ///< seeded jitter added to retry backoff delays
};

/// Seed of one \ref FaultStream sub-stream of \p planSeed: the k-th
/// draw of an Rng seeded with planSeed, k = the stream's enum index.
[[nodiscard]] std::uint64_t faultStreamSeed(std::uint64_t planSeed,
                                            FaultStream stream);

/// How crashed processes re-execute. A crashed process leaves the
/// system immediately (its progress is gone) and re-enters as a fresh
/// arrival after an integer exponential backoff — admission control
/// sees the retry exactly like any other arrival, so QueueCap/SloShed
/// can shed retries under overload. A process that exhausts
/// maxAttempts (or whose retry is shed) is permanently failed.
struct RetryPolicy {
  /// Re-executions granted after a crash; 0 = the first crash is fatal.
  std::uint32_t maxAttempts = 3;

  /// Backoff before re-arrival k (1-based):
  ///   min(backoffBaseCycles << (k - 1), backoffCapCycles)
  ///   + jitter drawn uniformly from [0, backoffJitterCycles]
  /// — classic capped integer exponential backoff with seeded jitter.
  std::int64_t backoffBaseCycles = 2'000;
  std::int64_t backoffCapCycles = 1'000'000;
  std::int64_t backoffJitterCycles = 0;

  /// Throws laps::Error on a non-positive base, a cap below the base
  /// (or past the overflow guard), or negative jitter.
  void validate() const;
};

/// Backoff delay before retry attempt \p attempt (1-based; see
/// RetryPolicy). \p jitterRng is the FaultStream::RetryJitter stream;
/// it is consumed only when backoffJitterCycles > 0, so jitter-free
/// plans draw nothing.
[[nodiscard]] std::int64_t retryBackoffCycles(const RetryPolicy& policy,
                                              std::uint32_t attempt,
                                              Rng& jitterRng);

/// The seeded fault configuration of one run. A class with mean 0 is
/// disabled; with every class disabled (the default) the plan is
/// inert and the engine behaves bit-identically to a fault-free run.
struct FaultPlan {
  /// Root seed every sub-stream derives from (see FaultStream).
  std::uint64_t seed = 1;

  /// Mean cycles between permanent core failures (0 = disabled).
  /// A failure that would leave no core able to ever run again — every
  /// other core already permanently down — is suppressed (counted in
  /// FaultStats::faultsSuppressed), so injection can degrade the
  /// platform but never wedge it.
  std::int64_t meanCoreFailureCycles = 0;

  /// Mean cycles between transient core outages (0 = disabled).
  std::int64_t meanCoreOutageCycles = 0;

  /// Mean cycles between process crashes (0 = disabled). Each crash
  /// hits one currently-running process; with nothing running the
  /// event is suppressed.
  std::int64_t meanCrashCycles = 0;

  /// How long a transient outage keeps its core down (> 0 when outages
  /// are enabled). The core returns with cold caches.
  std::int64_t outageDownCycles = 50'000;

  /// Cycles charged to a fault-displaced process's next segment (cold
  /// L1 on whatever core resumes it), outside the quantum like switch
  /// overhead. Accounted in FaultStats::migrationPenaltyCycles.
  std::int64_t migrationPenaltyCycles = 2'000;

  /// Extra displacement penalty when the platform has a shared L2
  /// (PlatformConfig::sharedL2): re-warming the larger shared level.
  std::int64_t l2RewarmPenaltyCycles = 0;

  /// Crash recovery policy (see RetryPolicy).
  RetryPolicy retry{};

  /// True when any fault class can fire.
  [[nodiscard]] bool enabled() const {
    return meanCoreFailureCycles > 0 || meanCoreOutageCycles > 0 ||
           meanCrashCycles > 0;
  }

  /// Throws laps::Error on a negative mean or penalty, a non-positive
  /// outage duration while outages are enabled, or an invalid retry
  /// policy.
  void validate() const;
};

/// One injected fault: \p kind fires at \p cycle. Targets are not part
/// of the event — the engine picks them from the FaultStream::Targets
/// stream against the set eligible when the event applies (the timeline
/// cannot know which cores are up or which processes run).
struct FaultEvent {
  std::int64_t cycle = 0;
  FaultClass kind = FaultClass::CoreFailure;
};

/// Lazily merges the (infinite) per-class fault streams of a FaultPlan
/// into one nondecreasing event sequence. Each enabled class draws its
/// gaps from its own GapSampler (ArrivalDistribution::Exponential — the
/// integer-geometric memoryless distribution) seeded from its own
/// sub-stream; the first event of a class fires one gap after cycle 0.
/// Ties break in FaultClass enum order. Construction validates the
/// plan, which must be enabled().
class FaultTimeline {
 public:
  explicit FaultTimeline(const FaultPlan& plan);

  /// The next pending fault without consuming it.
  [[nodiscard]] const FaultEvent& peek() const { return next_; }

  /// Consumes and returns the next fault, advancing its class's stream.
  FaultEvent pop();

 private:
  void refresh();  ///< recomputes next_ from the per-class heads

  struct ClassStream {
    FaultClass kind;
    GapSampler sampler;
    std::int64_t nextCycle;
  };
  std::vector<ClassStream> streams_;  // at most 3, FaultClass order
  FaultEvent next_{};
};

}  // namespace laps
