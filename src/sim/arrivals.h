#pragma once
/// \file arrivals.h
/// \brief Open-workload arrival schedules (docs/ARCHITECTURE.md §§9-10).
///
/// The paper's schedulers assume the whole process set is resident
/// before cycle 0. The in-OS use case is open: applications launch and
/// exit at run time. An ArrivalSchedule makes the simulated workload
/// open — work arrives at seeded inter-arrival distances, either as
/// whole task cohorts (an application launches with its whole process
/// graph) or as individual processes (a service ingesting a stream of
/// short requests), and an optional per-process lifetime retires
/// processes that overstay it.
///
/// Determinism: every inter-arrival gap is drawn with integer-only
/// arithmetic from laps::Rng (rejection sampling, fixed-point survival
/// functions, integer square roots — never a libm call), so a
/// (workload, schedule) pair produces the same arrival cycles on every
/// platform and build. See docs/ARCHITECTURE.md §10 for the
/// construction of each distribution.

#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace laps {

/// What one arrival event admits.
enum class ArrivalGranularity {
  /// All processes of one task arrive together, in the workload's task
  /// order (PR 5 semantics; the default, bit-identical to the original
  /// cohort engine).
  Cohort,
  /// Each process arrives individually, in process-id order. Tasks
  /// still group processes for the per-cohort statistics; a cohort's
  /// arrival cycle is its first member's. Dependences are unaffected: a
  /// process that arrives before a predecessor completes simply waits.
  PerProcess,
};

/// The seeded integer distribution of inter-arrival gaps. All three are
/// exactly reproducible across platforms: they never touch floating
/// point.
enum class ArrivalDistribution {
  /// Uniform on [1, 2*mean - 1]: mean exactly meanInterArrivalCycles,
  /// bounded support, no tail. The PR 5 scheme (and byte-compatible
  /// with it: same Rng draws in the same order).
  Uniform,
  /// Geometric on {1, 2, ...} with success probability 1/mean — the
  /// integer analogue of an exponential (memoryless, light tail). Gaps
  /// are sampled by inverting the fixed-point survival function
  /// q^k (q = 1 - 1/mean in Q0.64), so cost is O(log gap), not O(gap).
  Exponential,
  /// Bounded Pareto-like heavy tail: gaps span 8 octaves
  /// [L*2^j, L*2^(j+1)) whose probabilities decay as 2^(-alpha*j)
  /// (uniform within an octave), alpha = 1.5. L is derived from the
  /// configured mean, so the empirical mean still tracks
  /// meanInterArrivalCycles (to within rounding of L). P(gap > k*mean) decays polynomially in k — far
  /// heavier than Exponential's e^(-k) — which is what makes open
  /// service workloads bursty.
  BoundedPareto,
};

/// When and for how long processes are resident in an open workload.
///
/// The first arrival is at cycle 0 so the simulation always has work;
/// arrival k+1 follows arrival k by a seeded gap >= 1 drawn from
/// \ref distribution with mean meanInterArrivalCycles.
struct ArrivalSchedule {
  /// Seed of the inter-arrival stream.
  std::uint64_t seed = 1;

  /// Mean cycles between successive arrivals (> 0).
  std::int64_t meanInterArrivalCycles = 200'000;

  /// Optional residence cap: a process still unfinished
  /// processLifetimeCycles after its arrival is retired at the next
  /// scheduling boundary (> 0 when set). Retirement releases the
  /// process's dependents like a completion, so open workloads never
  /// deadlock on a killed producer.
  std::optional<std::int64_t> processLifetimeCycles;

  /// Cohort (default, PR 5 semantics) or per-process arrivals.
  ArrivalGranularity granularity = ArrivalGranularity::Cohort;

  /// Inter-arrival gap distribution (default: the PR 5 uniform scheme).
  ArrivalDistribution distribution = ArrivalDistribution::Uniform;

  /// Throws laps::Error on a non-positive mean or lifetime, or a
  /// BoundedPareto mean whose largest gap (2^8 times the smallest)
  /// overflows int64.
  void validate() const;
};

/// Draws the seeded inter-arrival gaps of an ArrivalSchedule, one call
/// per gap. Every draw is >= 1; the long-run mean tracks
/// meanInterArrivalCycles (exactly for Uniform and Exponential, to
/// within rounding of the minimum gap for BoundedPareto). Construction
/// validates the schedule.
class GapSampler {
 public:
  explicit GapSampler(const ArrivalSchedule& schedule);

  /// Next inter-arrival gap in cycles (>= 1).
  [[nodiscard]] std::int64_t next();

 private:
  [[nodiscard]] std::int64_t nextGeometric();
  [[nodiscard]] std::int64_t nextPareto();

  ArrivalDistribution distribution_;
  std::int64_t mean_;
  Rng rng_;
  /// Exponential: survival ratio q = 1 - 1/mean in Q0.64 fixed point,
  /// and a sanity cap on the (astronomically unlikely) extreme tail.
  std::uint64_t geomSurvivalQ64_ = 0;
  std::int64_t maxGap_ = 0;
  /// BoundedPareto: smallest gap L and per-octave cumulative weights in
  /// Q0.32 (paretoCumWeights_.back() is the total).
  std::int64_t paretoMinGap_ = 1;
  std::vector<std::uint64_t> paretoCumWeights_;
};

/// Arrival cycle of each of \p cohortCount cohorts under \p schedule:
/// element 0 is 0, later elements follow at seeded gaps. Monotonically
/// increasing for cohortCount > 1. Ignores \ref
/// ArrivalSchedule::granularity — this is the cohort-granularity
/// stream, byte-compatible with PR 5 for the default Uniform
/// distribution.
[[nodiscard]] std::vector<std::int64_t> cohortArrivalCycles(
    const ArrivalSchedule& schedule, std::size_t cohortCount);

/// Arrival cycle of each of \p processCount individually-arriving
/// processes (ArrivalGranularity::PerProcess), in process-id order:
/// element 0 is 0, later elements follow at seeded gaps from the same
/// distribution machinery as cohortArrivalCycles.
[[nodiscard]] std::vector<std::int64_t> processArrivalCycles(
    const ArrivalSchedule& schedule, std::size_t processCount);

}  // namespace laps
