#pragma once
/// \file reference_sharing.h
/// \brief Test-only reference sharing matrix: the dense n x n
/// implementation laps::SharingMatrix used before it stored one cell per
/// pair of sharing classes, kept as the differential oracle of
/// tests/region/sharing_differential_test.cpp. Every read of the class
/// table (at, rowSum, isActive, activeCount, classOf, row) must agree
/// with it after every addProcess and removeProcess. Its hand-written
/// surface, SharingMatrix(n) plus set(), is the textbook serial loop of
/// tests/region/parallel_analysis_test.cpp.

#include <cstdint>
#include <span>
#include <vector>

#include "region/footprint.h"

namespace laps::reference {

/// Symmetric matrix M where M[p][q] = |SS_{p,q}| = number of array
/// elements processes p and q both touch. Diagonal entries hold each
/// process's own footprint size.
///
/// Two maintenance regimes:
///  * closed (the paper's): compute() builds every pair once, up front;
///  * open (in-OS arrivals/exits): inactive(n) starts with every process
///    absent, and addProcess/removeProcess keep the matrix equal to what
///    a from-scratch compute over the currently active set would
///    produce, touching only the affected row and column — O(n) pair
///    intersections per event instead of O(n^2).
///
/// Sharing classes. Two processes share a class iff their footprints
/// agree on every array that some other process of the universe also
/// touches; an array only one process touches (a request's private
/// scratch) cannot enter any pair's intersection. So for same-class
/// p != q, M[p][r] == M[q][r] for every r outside {p, q}, and M[p][q]
/// is one intra value per class — exact integers, no approximation.
/// For inactive processes the contract holds trivially (their cells
/// are zero), so it binds the active members of a class. compute()
/// interns the classes, inactive(n) on its first addProcess; a matrix
/// built by SharingMatrix(n), or touched by set(), has singleton
/// classes (each process its own). Classes are numbered in order of
/// their smallest member id. The planner (sched/locality.h,
/// sched/plan_index.h) treats a class as one candidate, and
/// addProcess copies a live twin's row instead of intersecting.
class SharingMatrix {
 public:
  SharingMatrix() = default;

  /// n x n zero matrix; every process counts as active (so manually
  /// set() matrices behave as before the open-workload extension).
  explicit SharingMatrix(std::size_t n);

  /// n x n matrix with every process inactive — the starting point of
  /// incremental maintenance under process arrival/exit.
  [[nodiscard]] static SharingMatrix inactive(std::size_t n);

  /// Computes the full matrix from per-process footprints (exact).
  /// Pair intersections run on the parallel substrate (util/parallel.h);
  /// each cell is written by exactly one index, so the result is
  /// bit-identical to the serial loop at every thread count.
  static SharingMatrix compute(std::span<const Footprint> footprints);

  /// Activates process \p p: fills row/column p from \p footprints
  /// (which must describe the full n-process universe, the same one on
  /// every call). When another member of p's sharing class is active
  /// (a live twin), p's row and column are copied from the twin's and
  /// only the intra pair is intersected — O(n) loads, no per-pair
  /// intersections. Otherwise p is intersected only against the
  /// currently active processes. The new row's pair
  /// intersections run on the parallel substrate; each index writes its
  /// own (p, q)/(q, p) pair, so the result is bit-identical to a serial
  /// update at every thread count — and, by construction, to a
  /// from-scratch compute() over the active set (the same
  /// Footprint::sharedElements call evaluated in the same operand
  /// order). Throws laps::Error if \p p is already active or the
  /// universe size mismatches.
  void addProcess(std::span<const Footprint> footprints, std::size_t p);

  /// Deactivates process \p p, zeroing its row and column (including the
  /// diagonal). Only the active processes' column cells are visited —
  /// an inactive process's cells are already zero. Throws laps::Error
  /// if \p p is not active.
  void removeProcess(std::size_t p);

  /// \p p's sharing class (see the class comment), in
  /// [0, classCount()). With singleton classes, p itself.
  [[nodiscard]] std::size_t classOf(std::size_t p) const;

  /// Number of sharing classes (size() with singleton classes).
  [[nodiscard]] std::size_t classCount() const;

  /// True when \p p is present (added and not removed).
  [[nodiscard]] bool isActive(std::size_t p) const;

  /// Number of active processes.
  [[nodiscard]] std::size_t activeCount() const;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Bounds-checked accessors (throw laps::Error out of range). Internal
  /// hot loops use the unchecked cell() below instead: the check fired
  /// n^2 times per compute. set() writes one cell, so it drops the
  /// matrix to singleton classes (O(1)): the class contract is no
  /// longer implied by footprints.
  [[nodiscard]] std::int64_t at(std::size_t p, std::size_t q) const;
  void set(std::size_t p, std::size_t q, std::int64_t value);

  /// Whole-row view for index hot loops (sched/plan_index.h): bounds are
  /// checked once here instead of per cell, so scoring |row| candidates
  /// against process \p p costs |row| loads, not |row| checks. The span
  /// is invalidated by any mutation of the matrix.
  [[nodiscard]] std::span<const std::int64_t> row(std::size_t p) const;

  /// Sum over q != p of M[p][q] (how much p shares with everyone else),
  /// in O(1): the sum is stored and kept live by every mutation —
  /// compute() fills it, addProcess/removeProcess patch it with the
  /// row and column they touch, set() applies the change in value. The
  /// Fig. 3 trim derives each candidate's total from it by complement
  /// (sched/locality.h).
  [[nodiscard]] std::int64_t rowSum(std::size_t p) const;

 private:
  [[nodiscard]] std::size_t idx(std::size_t p, std::size_t q) const;
  /// Σ_{q≠p} M[p][q] summed fresh from row p (p < n_).
  [[nodiscard]] std::int64_t sumRow(std::size_t p) const;
  /// Interns the sharing classes of \p footprints (see the class
  /// comment): classOf_, the member lists and empty witnesses.
  void internClasses(std::span<const Footprint> footprints);
  /// Activates p by copying live twin \p twin's row and column.
  void copyTwin(std::span<const Footprint> footprints, std::size_t p,
                std::size_t twin);
  /// Activates p by intersecting it with every active process.
  void intersectRow(std::span<const Footprint> footprints, std::size_t p);

  /// Unchecked cell access for loops whose indices are validated once at
  /// the boundary (p, q < n_ by construction).
  [[nodiscard]] std::int64_t& cell(std::size_t p, std::size_t q) {
    return cells_[p * n_ + q];
  }
  [[nodiscard]] std::int64_t cell(std::size_t p, std::size_t q) const {
    return cells_[p * n_ + q];
  }

  std::size_t n_ = 0;
  std::vector<std::int64_t> cells_;  // row-major n x n
  std::vector<std::int64_t> rowSums_;  // rowSums_[p] = Σ_{q≠p} M[p][q]
  std::vector<char> active_;         // per-process presence flags
  // Sharing classes; all empty = singleton classes.
  bool internPending_ = false;  // inactive(n): intern on first addProcess
  std::vector<std::uint32_t> classOf_;       // class per process
  std::vector<std::uint32_t> classStart_;    // CSR offsets, classCount()+1
  std::vector<std::uint32_t> classMembers_;  // ascending within a class
  std::vector<std::uint32_t> witness_;  // an active member, or kNoWitness
  static constexpr std::uint32_t kNoWitness = 0xffffffffU;
};

}  // namespace laps::reference
