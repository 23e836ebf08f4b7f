#pragma once
/// \file sharing.h
/// \brief The inter-process sharing matrix (paper §2, Fig. 2(a)).

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "region/footprint.h"
#include "util/error.h"
#include "util/table.h"

namespace laps {

/// Allocator of calloc'd storage whose value-initialising construct
/// writes nothing: a vector sized with it reads zero, and a page
/// becomes resident only when a cell on it is written.
template <typename T>
struct ZeroedAllocator {
  using value_type = T;
  T* allocate(std::size_t count) {
    if (void* p = std::calloc(count, sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t /*count*/) noexcept { std::free(p); }
  void construct(T* /*p*/) noexcept {}
  friend bool operator==(ZeroedAllocator, ZeroedAllocator) { return true; }
};

/// Symmetric matrix M where M[p][q] = |SS_{p,q}| = number of array
/// elements processes p and q both touch. Diagonal entries hold each
/// process's own footprint size. M is stored per sharing class.
///
/// Sharing classes. Two processes share a class iff their footprints
/// agree on every array that some other process of the universe also
/// touches; an array only one process touches (a request's private
/// scratch) cannot enter any pair's intersection. So for same-class
/// p != q, M[p][r] == M[q][r] for every r outside {p, q}, and M[p][q]
/// is one intra value per class — exact integers, no approximation.
/// Every matrix is built from footprints: compute() interns the
/// classes, inactive(n) on its first addProcess (until then each
/// process is a class of its own). Classes are numbered in order of
/// their smallest member (the class's rep).
///
/// Storage. One (classes + 1)² cell table, symmetric by construction
/// (every write sets cells (k, l) and (l, k) together): cell (k, l) is
/// the sharing between a member of class k and a member of class l,
/// the diagonal cell (k, k) the intra value, and an extra all-zero
/// row and column stand for every inactive process. Besides it: the
/// per-process diagonal (footprint totals differ inside a class,
/// because private arrays drop out of the class key), the live member
/// count of each class and, per live class k, Σ_{l≠k} count[l]·M[k][l].
/// Memory is O(classes² + n) reserved, but the table is calloc'd
/// (ZeroedAllocator) and only pages holding a written cell become
/// resident. compute() writes the non-zero cells alone: on the Fig. 7
/// mix at |T| = 48 (1320 singleton classes) 5.35 of 13.3 MiB. It needs
/// glibc's mmap path for the block (perfbench pins its threshold at
/// 128 KiB) and transparent huge pages at madvise or never (under
/// always, 2 MB write faults shrink the saving). inactive(n)'s kUnknown
/// fill backs every page.
///
/// Two maintenance regimes:
///  * closed (the paper's): compute() intersects every class pair that
///    touches a common array once, up front;
///  * open (in-OS arrivals/exits): inactive(n) starts with every process
///    absent, and addProcess/removeProcess keep the matrix equal to what
///    a from-scratch compute over the currently active set would
///    produce. An event updates the live member count and the live
///    classes' sums, O(live classes). A class pair is intersected once
///    per matrix, from the reps' footprints, the first time both
///    classes are live; its cell never changes afterwards.
///
/// The planner (sched/locality.h, sched/plan_index.h) reads class
/// cells directly (slotOf, slotRow) and treats a class as one
/// candidate.
class SharingMatrix {
 public:
  SharingMatrix() = default;

  /// n x n matrix with every process inactive — the starting point of
  /// incremental maintenance under process arrival/exit. It holds no
  /// cell table until its first addProcess interns the classes.
  [[nodiscard]] static SharingMatrix inactive(std::size_t n);

  /// Computes the full matrix from per-process footprints (exact): one
  /// intersection per class pair whose reps touch a common array, plus
  /// one per class with two or more members (its intra value). Every
  /// other cell, and every pair that shares nothing, stays unwritten
  /// zero. The pairs come from an array → toucher index, each class
  /// walking its distinct partners above it at Σ_a touchers(a)², and a
  /// second walk of all its partners gives its class sum; the classes
  /// run on the parallel substrate (util/parallel.h), each writing only
  /// its own pairs' cells and its own sum, so the result is
  /// bit-identical to the serial loop at every thread count. With
  /// singleton classes (the paper's concurrent mixes) these are the
  /// co-touching process pairs: 15,728 of the 870,540 pairs of the
  /// Fig. 7 mix at |T| = 48.
  static SharingMatrix compute(std::span<const Footprint> footprints);

  /// Activates process \p p (\p footprints must describe the full
  /// n-process universe, the same one on every call). When p's class
  /// was empty, its cells with the live classes that were never
  /// intersected (and its intra value) are intersected, in compute()'s
  /// operand order (footprints[min rep].sharedElements(footprints[max
  /// rep])). Then the live count and the live classes' sums are
  /// patched, O(live classes). Throws laps::Error if \p p is already
  /// active or the universe size mismatches.
  void addProcess(std::span<const Footprint> footprints, std::size_t p);

  /// Deactivates process \p p: its row and column read zero from now
  /// on. O(live classes). Throws laps::Error if \p p is not active.
  void removeProcess(std::size_t p);

  /// \p p's sharing class (see the class comment), in
  /// [0, classCount()). With singleton classes, p itself.
  [[nodiscard]] std::size_t classOf(std::size_t p) const;

  /// Number of sharing classes (size() with singleton classes).
  [[nodiscard]] std::size_t classCount() const { return count_.size(); }

  /// True when \p p is present (added and not removed).
  [[nodiscard]] bool isActive(std::size_t p) const;

  /// Number of active processes, O(1).
  [[nodiscard]] std::size_t activeCount() const { return activeCount_; }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Bounds-checked accessor (throws laps::Error out of range): a class
  /// lookup plus the diagonal fix-up; it reads 0 whenever p or q is
  /// inactive.
  [[nodiscard]] std::int64_t at(std::size_t p, std::size_t q) const {
    check(p < n_ && q < n_, "SharingMatrix: index out of range");
    return p == q ? diag_[p] : cells_[slot_[p] * stride_ + slot_[q]];
  }

  /// Row \p p as n cells, for tooling and tests: O(n), filled into a
  /// per-matrix scratch buffer. The span is invalidated by the next
  /// row() call and by any mutation, and row() must not be called from
  /// two threads at once. No hot path in src/ reads it; they read
  /// class cells (slotRow) instead.
  [[nodiscard]] std::span<const std::int64_t> row(std::size_t p) const;

  /// Sum over q != p of M[p][q] (how much p shares with everyone else),
  /// in O(1): its class's stored sum plus (count − 1) intra values. The
  /// Fig. 3 trim derives each candidate's total from it by complement
  /// (sched/locality.h).
  [[nodiscard]] std::int64_t rowSum(std::size_t p) const;

  /// Renders as a table (for examples / debugging), labels P0..Pn-1.
  [[nodiscard]] Table toTable() const;

  /// Hot-path class table reads (sched/plan_index.h, sched/locality.h),
  /// unchecked: \p p < size(), \p slot <= classCount(). A process's
  /// slot is 0 while it is inactive and classOf(p) + 1 while active;
  /// slotRow(s)[t] is M[p][q] for any p in slot s and q != p in slot t
  /// (slot 0's row and column are zero). The row of a live slot is
  /// valid at every live slot and at slot 0.
  [[nodiscard]] std::uint32_t slotOf(std::size_t p) const { return slot_[p]; }
  [[nodiscard]] const std::int64_t* slotRow(std::uint32_t slot) const {
    return cells_.data() + slot * stride_;
  }

  /// Footprint pair intersections made so far (compute, addProcess): the
  /// deterministic work count of this layer.
  [[nodiscard]] std::uint64_t intersections() const { return intersections_; }

  /// Audit checker (docs/ARCHITECTURE.md §11). The class bookkeeping:
  /// each class's member list names only members of it, every process's
  /// slot is 0 or its class's, every live count equals a recount of
  /// the active flags, the live list holds exactly the classes with
  /// members, and the active counter is their total. The table: the
  /// inactive row and column are zero, every cell between live classes
  /// is intersected and symmetric, and every live class's stored sum
  /// equals a fresh sum (a dead class's is zero). The diagonal of an
  /// active process is non-negative (a footprint size), an inactive
  /// one's zero. Throws laps::AuditError on violation. The engine runs
  /// it after every incremental arrival/exit update under
  /// LAPSCHED_AUDIT; tests inject violations through
  /// corruptCellForTest, corruptRowSumForTest and corruptClassForTest
  /// to prove it fires.
  void auditInvariants() const;

  /// Test seam for the audit paths: overwrites the one cell at(p, q)
  /// reads (the diagonal when p == q) with \p value, without its mirror
  /// or any stored sum.
  void corruptCellForTest(std::size_t p, std::size_t q, std::int64_t value);

  /// Test seam for the audit path: overwrites the stored sum of \p p's
  /// class so that rowSum(p) would read \p value, bypassing the
  /// maintenance.
  void corruptRowSumForTest(std::size_t p, std::int64_t value);

  /// Test seam for the audit paths: records \p p as a member of class
  /// \p k without moving any count, slot or member list entry.
  void corruptClassForTest(std::size_t p, std::size_t k);

 private:
  /// Interns the sharing classes of \p footprints (see the class
  /// comment) and allocates their table, every class pair's cells set
  /// to \p fill: kUnknown for intersection on demand (addProcess), 0
  /// (nothing written) where compute() intersects the co-touching pairs.
  void internClasses(std::span<const Footprint> footprints, std::int64_t fill);
  /// Allocates a (classCount() + 1)² table filled with \p fill, the
  /// inactive row and column zero. A zero fill writes no cell.
  void allocateTable(std::int64_t fill);
  /// Makes class \p k live: intersects its missing cells with the live
  /// classes, fills its sum and appends it to the live list.
  void reviveClass(std::span<const Footprint> footprints, std::uint32_t k);
  /// Σ_{l live, l≠k} count[l]·M[k][l], summed fresh.
  [[nodiscard]] std::int64_t sumOfClass(std::uint32_t k) const;
  /// The class bookkeeping clauses of auditInvariants.
  void auditClasses() const;

  /// Unchecked class cell (k, l < classCount()).
  [[nodiscard]] std::int64_t& cell(std::uint32_t k, std::uint32_t l) {
    return cells_[(k + std::size_t{1}) * stride_ + l + 1];
  }
  [[nodiscard]] std::int64_t cell(std::uint32_t k, std::uint32_t l) const {
    return cells_[(k + std::size_t{1}) * stride_ + l + 1];
  }
  [[nodiscard]] std::uint32_t rep(std::uint32_t k) const {
    return classMembers_[classStart_[k]];
  }

  /// A class cell never intersected (no footprint pair is that large).
  static constexpr std::int64_t kUnknown = INT64_MIN;
  static constexpr std::uint32_t kNotLive = 0xffffffffU;

  std::size_t n_ = 0;
  // Class table, row-major stride_ x stride_ over slots; 1 x 1 (the
  // inactive slot alone) until an inactive(n) matrix interns.
  std::size_t stride_ = 1;
  std::vector<std::int64_t, ZeroedAllocator<std::int64_t>> cells_{0};
  std::vector<std::int64_t> diag_;   // per process; 0 while inactive
  std::vector<std::uint32_t> slot_;  // per process: 0, or class + 1
  std::size_t activeCount_ = 0;
  std::uint64_t intersections_ = 0;
  bool internPending_ = false;  // inactive(n): intern on first addProcess
  std::vector<std::uint32_t> classOf_;       // class per process
  std::vector<std::uint32_t> classStart_;    // CSR offsets, classCount()+1
  std::vector<std::uint32_t> classMembers_;  // ascending within a class
  std::vector<std::uint32_t> count_;         // live members per class
  std::vector<std::int64_t> classSum_;       // live classes; 0 when dead
  std::vector<std::uint32_t> live_;          // live classes, any order
  std::vector<std::uint32_t> liveSlot_;      // index into live_, kNotLive
  mutable std::vector<std::int64_t> rowScratch_;  // row()
};

namespace audit {
/// Audit checker (docs/ARCHITECTURE.md §11): the live sharing matrix's
/// active set must agree exactly with the engine's live process set —
/// active iff admitted (arrived) and not yet exited — and the active
/// count must equal \p inSystem, the engine's admitted-minus-exited
/// counter. A disagreement means the policy is scoring against rows of
/// dead or never-admitted processes. Throws laps::AuditError on
/// violation; tests call it directly with disagreeing inputs.
void activeSetAgreement(const SharingMatrix& matrix,
                        const std::vector<bool>& arrived,
                        const std::vector<bool>& exited,
                        std::size_t inSystem);
}  // namespace audit

}  // namespace laps
