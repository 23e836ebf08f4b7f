#pragma once
/// \file golden_digest.h
/// \brief 64-bit FNV-1a digest over scheduler decisions. The golden
/// tests fold every plan state, every pick and the final PolicyStats of
/// a seeded run into one value and compare it with a frozen constant,
/// so any change to a single decision changes the digest.

#include <cstdint>
#include <optional>

#include "core/laps.h"

namespace laps {

struct Fnv1a {
  std::uint64_t value = 0xcbf29ce484222325ULL;

  /// Folds \p word in byte by byte, least significant byte first, so
  /// the digest does not depend on the host's endianness.
  Fnv1a& add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (word >> (8 * byte)) & 0xffU;
      value *= 0x100000001b3ULL;
    }
    return *this;
  }

  Fnv1a& addPlan(const LocalityPlan& plan) {
    add(plan.perCore.size());
    for (const auto& order : plan.perCore) {
      add(order.size());
      for (const ProcessId p : order) add(p);
    }
    return *this;
  }

  /// An idle pick (nullopt) folds in as all-ones, outside the id range.
  Fnv1a& addPick(std::optional<ProcessId> pick) {
    return add(pick ? std::uint64_t{*pick} : ~std::uint64_t{0});
  }

  Fnv1a& addStats(const PolicyStats& stats) {
    return add(stats.decisions)
        .add(stats.rebuilds)
        .add(stats.patches)
        .add(stats.steals)
        .add(stats.offloads);
  }
};

}  // namespace laps
