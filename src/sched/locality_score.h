#pragma once
/// \file locality_score.h
/// \brief The single definition of locality-score arithmetic shared by
/// every locality policy (DLS, CALS, OLS and the plan index).
///
/// Before this class each policy reimplemented its own score math:
/// DLS's sharing-with-previous scan, CALS's sharing-minus-conflict
/// combiner, OLS's tail-or-anchor arrival scoring and the plan index's
/// argmax keys. Adding the NoC hop-distance term would have meant a
/// fourth copy. LocalityScore centralizes the arithmetic as one hook
/// exposed on SchedulerPolicy (SchedulerPolicy::localityScore()):
///
///   sharing term    sharing(anchor, candidate)   — every policy
///   distance term   - hopWeight × hops(core, home)
///                                                — NoC platforms only
///
/// (CALS subtracts its L2 conflict count from the sharing term itself,
/// in the same integers; see L2ContentionAwareScheduler::pickNext.)
///
/// Distance-blind (hopWeight == 0 or no topology — every pre-NoC
/// configuration) each helper degenerates to exactly the legacy
/// arithmetic, so refactoring the policies through this class changes
/// no decision: the committed decision checksums of
/// bench_policy_overhead and tests/sched/locality_score_test.cpp pin it.
///
/// All integer: every score is an int64 element or line-pair count.

#include <cstdint>
#include <optional>

#include "cache/noc.h"
#include "region/sharing.h"
#include "taskgraph/process.h"

namespace laps {

/// See file comment. Configured by a policy's reset() from its
/// SchedContext; cheap to copy, holds only non-owning pointers.
class LocalityScore {
 public:
  /// Multiplier lifting the sharing term over the hop penalty in
  /// combined integer keys: sharing dominates, distance breaks ties
  /// between comparably-sharing candidates (hopWeight calibrates how
  /// much sharing one hop is worth, in 1/kSharingScale units).
  static constexpr std::int64_t kSharingScale = 1024;

  /// \p topology null or \p hopWeight 0 = distance-blind (legacy).
  void configure(const SharingMatrix* sharing,
                 const NocTopology* topology = nullptr,
                 std::int64_t hopWeight = 0) {
    sharing_ = sharing;
    topology_ = topology;
    hopWeight_ = topology ? hopWeight : 0;
  }

  [[nodiscard]] bool distanceAware() const { return hopWeight_ > 0; }
  [[nodiscard]] std::int64_t hopWeight() const { return hopWeight_; }
  [[nodiscard]] const NocTopology* topology() const { return topology_; }

  /// The sharing term: data elements \p candidate shares with
  /// \p anchor, 0 without an anchor — exactly the legacy per-policy
  /// arithmetic.
  [[nodiscard]] std::int64_t sharing(std::optional<ProcessId> anchor,
                                     ProcessId candidate) const {
    return anchor ? sharing_->at(*anchor, candidate) : 0;
  }

  /// Combined integer key over a precomputed \p sharingTerm for a
  /// candidate whose cache-warm home core is \p home, dispatched on
  /// \p core. Distance-blind: the sharing term unchanged (bit-identical
  /// legacy keys). Distance-aware: sharing × kSharingScale −
  /// hopWeight × hops(core, home) — still one int64, still totally
  /// ordered, so the plan index's argmax works unchanged.
  [[nodiscard]] std::int64_t key(std::int64_t sharingTerm, std::size_t core,
                                 std::optional<std::size_t> home) const {
    if (hopWeight_ == 0) return sharingTerm;
    std::int64_t penalty = 0;
    if (home) {
      penalty = hopWeight_ * topology_->hops(
                                 static_cast<std::int64_t>(core),
                                 static_cast<std::int64_t>(*home));
    }
    return sharingTerm * kSharingScale - penalty;
  }

 private:
  const SharingMatrix* sharing_ = nullptr;
  const NocTopology* topology_ = nullptr;
  std::int64_t hopWeight_ = 0;
};

}  // namespace laps
