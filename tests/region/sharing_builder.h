#pragma once
/// \file sharing_builder.h
/// \brief Test-only builder of sharing matrices with chosen cells.
///
/// laps::SharingMatrix is built from footprints only, so a test that
/// wants particular cells asks for them here and gets footprints that
/// produce exactly those cells. Each requested pair (p, q, s) owns one
/// array of s elements that p and q both touch in full and nobody else
/// touches; each process may add private elements on an array of its
/// own. So M[p][q] = s for every requested pair, 0 for every other
/// pair, and M[p][p] = Σ of p's pairs + its padding.

#include <cstdint>
#include <vector>

#include "region/sharing.h"
#include "util/error.h"

namespace laps::test {

class SharingBuilder {
 public:
  explicit SharingBuilder(std::size_t n) : padding_(n, 0) {}

  /// M[p][q] = M[q][p] = \p shared; a zero request is a no-op, and a
  /// pair requested twice shares the sum.
  SharingBuilder& pair(std::size_t p, std::size_t q, std::int64_t shared) {
    check(p < padding_.size() && q < padding_.size() && p != q &&
              shared >= 0,
          "SharingBuilder::pair: invalid pair");
    if (shared > 0) pairs_.push_back({p, q, shared});
    return *this;
  }

  /// Adds \p elements private elements to \p p: its diagonal only.
  SharingBuilder& pad(std::size_t p, std::int64_t elements) {
    check(p < padding_.size() && elements >= 0,
          "SharingBuilder::pad: invalid padding");
    padding_[p] += elements;
    return *this;
  }

  /// Pair i on array i, then process p's private array after them.
  [[nodiscard]] SharingMatrix build() const {
    std::vector<Footprint> fps(padding_.size());
    ArrayId array = 0;
    for (const Pair& pair : pairs_) {
      const IntervalSet elements = IntervalSet::range(0, pair.shared);
      fps[pair.p].add(array, elements);
      fps[pair.q].add(array, elements);
      ++array;
    }
    for (std::size_t p = 0; p < padding_.size(); ++p, ++array) {
      if (padding_[p] > 0) fps[p].add(array, IntervalSet::range(0, padding_[p]));
    }
    return SharingMatrix::compute(fps);
  }

 private:
  struct Pair {
    std::size_t p;
    std::size_t q;
    std::int64_t shared;
  };
  std::vector<Pair> pairs_;
  std::vector<std::int64_t> padding_;
};

}  // namespace laps::test
