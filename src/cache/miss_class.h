#pragma once
/// \file miss_class.h
/// \brief Compulsory / capacity / conflict miss classification.
///
/// The paper's two techniques attack different miss classes: scheduling
/// by data reuse removes capacity/compulsory-adjacent misses (data is
/// already on chip), while the Fig. 4 re-layout removes conflict misses.
/// This classifier lets tests and benchmarks verify that each mechanism
/// moves the class it is supposed to move.
///
/// Classification follows the standard 3C model:
///  * compulsory — the line was never referenced before;
///  * capacity  — a fully-associative LRU cache of equal capacity would
///                also have missed;
///  * conflict  — the fully-associative shadow cache would have hit, so
///                the miss is due to limited associativity / indexing.

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/config.h"

namespace laps {

enum class MissKind : std::uint8_t { Compulsory, Capacity, Conflict };

/// Per-class miss counters.
struct MissBreakdown {
  std::uint64_t compulsory = 0;
  std::uint64_t capacity = 0;
  std::uint64_t conflict = 0;

  [[nodiscard]] std::uint64_t total() const {
    return compulsory + capacity + conflict;
  }
  void accumulate(const MissBreakdown& other) {
    compulsory += other.compulsory;
    capacity += other.capacity;
    conflict += other.conflict;
  }
};

/// Classifies the misses of a set-associative cache by replaying the same
/// reference stream against a fully-associative LRU shadow of equal
/// capacity. Feed it every access, hit or miss.
class MissClassifier {
 public:
  explicit MissClassifier(const CacheConfig& config);

  /// Records one access. \p realMiss says whether the modeled cache
  /// missed. Returns the miss class when realMiss is true.
  std::optional<MissKind> record(std::uint64_t addr, bool realMiss);

  /// Clears the shadow cache (mirror of SetAssocCache::flush). The
  /// ever-seen set is kept: compulsory means "first access ever".
  void flushShadow();

  [[nodiscard]] const MissBreakdown& breakdown() const { return breakdown_; }
  void resetStats() { breakdown_ = MissBreakdown{}; }

  /// Lines the shadow holds (the modeled cache's capacity).
  [[nodiscard]] std::int64_t capacityLines() const {
    return static_cast<std::int64_t>(capacityLines_);
  }

 private:
  /// Accesses the fully-associative shadow; returns true on shadow hit.
  bool shadowAccess(std::uint64_t line);

  std::int64_t lineBytes_;
  std::size_t capacityLines_;
  MissBreakdown breakdown_;
  /// Both hash containers are lookup-only (contains / find / erase by
  /// key — never iterated): recency order lives entirely in lru_, so
  /// hash order cannot reach the classification. Order-insensitivity is
  /// pinned against an ordered-container oracle by
  /// OrderedOracleAgreement in tests/cache/miss_class_test.cpp.
  // LINT-ALLOW(unordered-container): contains-only ever-seen set, never iterated; oracle-tested
  std::unordered_set<std::uint64_t> everSeen_;
  std::list<std::uint64_t> lru_;  // front = most recent
  // LINT-ALLOW(unordered-container): find/erase by key only, order lives in lru_; oracle-tested
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
};

}  // namespace laps
