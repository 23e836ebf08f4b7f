#include "region/sharing.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/audit.h"
#include "util/parallel.h"

namespace laps {

SharingMatrix SharingMatrix::inactive(std::size_t n) {
  // One class per process until the first addProcess interns.
  SharingMatrix m;
  m.n_ = n;
  m.diag_.assign(n, 0);
  m.slot_.assign(n, 0);
  m.classOf_.resize(n);
  m.classStart_.resize(n + 1);
  m.classMembers_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    m.classOf_[p] = m.classStart_[p] = m.classMembers_[p] = p;
  }
  m.classStart_[n] = static_cast<std::uint32_t>(n);
  m.count_.assign(n, 0);
  m.classSum_.assign(n, 0);
  m.liveSlot_.assign(n, kNotLive);
  m.internPending_ = true;
  return m;
}

void SharingMatrix::allocateTable(std::int64_t fill) {
  stride_ = classCount() + 1;
  cells_ = decltype(cells_)(stride_ * stride_);  // zero, nothing written
  if (fill == 0) return;
  std::fill(cells_.begin() + static_cast<std::ptrdiff_t>(stride_),
            cells_.end(), fill);
  for (std::size_t s = stride_; s < cells_.size(); s += stride_) cells_[s] = 0;
}

namespace {

/// Orders two footprints by their entries on shared arrays (those at
/// least two processes touch, touchers[a] >= 2): negative, zero or
/// positive. Zero means the two belong to one sharing class.
int compareShared(const Footprint& a, const Footprint& b,
                  const std::vector<std::uint32_t>& touchers) {
  auto ia = a.perArray().begin();
  auto ib = b.perArray().begin();
  const auto ea = a.perArray().end();
  const auto eb = b.perArray().end();
  for (;;) {
    while (ia != ea && touchers[ia->first] < 2) ++ia;
    while (ib != eb && touchers[ib->first] < 2) ++ib;
    if (ia == ea || ib == eb) return (ia != ea) - (ib != eb);
    if (ia->first != ib->first) return ia->first < ib->first ? -1 : 1;
    const std::vector<Interval>& pa = ia->second.pieces();
    const std::vector<Interval>& pb = ib->second.pieces();
    for (std::size_t i = 0; i < pa.size() && i < pb.size(); ++i) {
      if (pa[i].lo != pb[i].lo) return pa[i].lo < pb[i].lo ? -1 : 1;
      if (pa[i].hi != pb[i].hi) return pa[i].hi < pb[i].hi ? -1 : 1;
    }
    if (pa.size() != pb.size()) return pa.size() < pb.size() ? -1 : 1;
    ++ia;
    ++ib;
  }
}

/// The one intersection of a pair, in compute()'s operand order.
std::int64_t intersectPair(std::span<const Footprint> footprints,
                           std::uint32_t a, std::uint32_t b) {
  return footprints[std::min(a, b)].sharedElements(footprints[std::max(a, b)]);
}

}  // namespace

void SharingMatrix::internClasses(std::span<const Footprint> footprints,
                                  std::int64_t fill) {
  const std::size_t n = footprints.size();
  std::size_t arrays = 0;
  for (const Footprint& fp : footprints) {
    for (const auto& entry : fp.perArray()) {
      arrays = std::max<std::size_t>(arrays, entry.first + std::size_t{1});
    }
  }
  std::vector<std::uint32_t> touchers(arrays, 0);
  for (const Footprint& fp : footprints) {
    for (const auto& entry : fp.perArray()) ++touchers[entry.first];
  }
  // Sort by shared entries, id breaking ties: equal runs are classes,
  // each led by its smallest member. Comparing in place keeps interning
  // free of copies of the footprints.
  std::vector<std::uint32_t> order(n);
  for (std::size_t p = 0; p < n; ++p) order[p] = static_cast<std::uint32_t>(p);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const int c = compareShared(footprints[a], footprints[b], touchers);
    return c != 0 ? c < 0 : a < b;
  });
  // leader[p]: the smallest member of p's class. Classes are numbered
  // in order of their leaders.
  std::vector<std::uint32_t> leader(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool newRun =
        i == 0 || compareShared(footprints[order[i - 1]],
                                footprints[order[i]], touchers) != 0;
    leader[order[i]] = newRun ? order[i] : leader[order[i - 1]];
  }
  classOf_.resize(n);
  std::uint32_t classes = 0;
  for (std::size_t p = 0; p < n; ++p) {
    classOf_[p] = leader[p] == p ? classes++ : classOf_[leader[p]];
  }
  classStart_.assign(classes + std::size_t{1}, 0);
  for (std::size_t p = 0; p < n; ++p) ++classStart_[classOf_[p] + 1];
  for (std::size_t k = 0; k < classes; ++k) {
    classStart_[k + 1] += classStart_[k];
  }
  std::vector<std::uint32_t> next(classStart_.begin(), classStart_.end() - 1);
  classMembers_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    classMembers_[next[classOf_[p]]++] = static_cast<std::uint32_t>(p);
  }
  count_.assign(classes, 0);
  classSum_.assign(classes, 0);
  live_.clear();
  liveSlot_.assign(classes, kNotLive);
  allocateTable(fill);
  // A lone member has no intra pair; its diagonal cell is never read
  // with weight, and 0 keeps the table free of unknowns at live slots.
  for (std::uint32_t k = 0; k < classes && fill != 0; ++k) {
    if (classStart_[k + 1] - classStart_[k] == 1) cell(k, k) = 0;
  }
  internPending_ = false;
}

std::int64_t SharingMatrix::sumOfClass(std::uint32_t k) const {
  std::int64_t sum = 0;
  for (const std::uint32_t l : live_) {
    if (l != k) sum += count_[l] * cell(k, l);
  }
  return sum;
}

void SharingMatrix::addProcess(std::span<const Footprint> footprints,
                               std::size_t p) {
  check(footprints.size() == n_,
        "SharingMatrix::addProcess: footprint universe size mismatch");
  check(p < n_, "SharingMatrix::addProcess: index out of range");
  check(slot_[p] == 0, "SharingMatrix::addProcess: process already active");
  if (internPending_) internClasses(footprints, kUnknown);
  const std::uint32_t k = classOf_[p];
  if (count_[k] == 0) reviveClass(footprints, k);
  // Every other live class gains one member of k in its sum.
  for (const std::uint32_t l : live_) {
    if (l != k) classSum_[l] += cell(l, k);
  }
  ++count_[k];
  slot_[p] = k + 1;
  diag_[p] = footprints[p].totalElements();
  ++activeCount_;
}

void SharingMatrix::reviveClass(std::span<const Footprint> footprints,
                                std::uint32_t k) {
  // The cells k still needs: its intra value (two smallest members) and
  // its pairs with the live classes never intersected before. Cells
  // outlive class deaths, so a revived class reuses them.
  if (cell(k, k) == kUnknown) {
    cell(k, k) = intersectPair(footprints, rep(k),
                               classMembers_[classStart_[k] + 1]);
    ++intersections_;
  }
  for (const std::uint32_t l : live_) {
    if (cell(k, l) != kUnknown) continue;
    cell(k, l) = cell(l, k) = intersectPair(footprints, rep(k), rep(l));
    ++intersections_;
  }
  classSum_[k] = sumOfClass(k);
  liveSlot_[k] = static_cast<std::uint32_t>(live_.size());
  live_.push_back(k);
}

void SharingMatrix::removeProcess(std::size_t p) {
  check(p < n_, "SharingMatrix::removeProcess: index out of range");
  check(slot_[p] != 0, "SharingMatrix::removeProcess: process not active");
  const std::uint32_t k = classOf_[p];
  slot_[p] = 0;
  diag_[p] = 0;
  --activeCount_;
  --count_[k];
  for (const std::uint32_t l : live_) {
    if (l != k) classSum_[l] -= cell(l, k);
  }
  if (count_[k] > 0) return;
  // The class died: swap-remove it from the live list.
  classSum_[k] = 0;
  const std::uint32_t pos = liveSlot_[k];
  live_[pos] = live_.back();
  liveSlot_[live_[pos]] = pos;
  live_.pop_back();
  liveSlot_[k] = kNotLive;
}

std::size_t SharingMatrix::classOf(std::size_t p) const {
  check(p < n_, "SharingMatrix::classOf: index out of range");
  return classOf_[p];
}

bool SharingMatrix::isActive(std::size_t p) const {
  check(p < n_, "SharingMatrix::isActive: index out of range");
  return slot_[p] != 0;
}

SharingMatrix SharingMatrix::compute(std::span<const Footprint> footprints) {
  const std::size_t n = footprints.size();
  SharingMatrix m = inactive(n);
  m.internClasses(footprints, 0);
  const auto classes = static_cast<std::uint32_t>(m.classCount());
  for (std::uint32_t p = 0; p < n; ++p) {
    m.slot_[p] = m.classOf_[p] + 1;
    m.diag_[p] = footprints[p].totalElements();
  }
  m.activeCount_ = n;
  for (std::uint32_t k = 0; k < classes; ++k) {
    m.count_[k] = m.classStart_[k + 1] - m.classStart_[k];
    m.liveSlot_[k] = k;
    m.live_.push_back(k);
    if (m.count_[k] > 1) {
      m.cell(k, k) = intersectPair(footprints, m.rep(k),
                                   m.classMembers_[m.classStart_[k] + 1]);
      ++m.intersections_;
    }
  }
  // Two reps that touch no common array share nothing, so only the
  // co-touching pairs are intersected: index each array to the classes
  // whose rep touches it (ascending), then walk each class's distinct
  // partners above it. Listing costs Σ_a touchers(a)², no more than the
  // intersections of those same pairs. Only non-zero cells are written:
  // every other one keeps the table's unwritten zero (allocateTable).
  std::vector<std::uint32_t> reps(classes);
  std::vector<std::vector<std::uint32_t>> touchers;
  for (std::uint32_t k = 0; k < classes; ++k) {
    reps[k] = m.rep(k);
    for (const auto& entry : footprints[reps[k]].perArray()) {
      if (entry.first >= touchers.size()) touchers.resize(entry.first + 1);
      touchers[entry.first].push_back(k);
    }
  }
  // Class k owns its pairs (k, l > k) and writes cells (k, l) and
  // (l, k) and partners[k] only, and sharedElements is a pure function
  // of the two footprints — so the table is bit-identical to the serial
  // loop at any thread count.
  std::vector<std::uint32_t> partners(classes, 0);
  parallelChunks(classes, [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> listedBy(classes, kNotLive);
    for (auto k = static_cast<std::uint32_t>(begin); k < end; ++k) {
      for (const auto& entry : footprints[reps[k]].perArray()) {
        const std::vector<std::uint32_t>& t = touchers[entry.first];
        for (auto l = std::upper_bound(t.begin(), t.end(), k); l != t.end();
             ++l) {
          if (std::exchange(listedBy[*l], k) == k) continue;
          const std::int64_t shared =
              intersectPair(footprints, reps[k], reps[*l]);
          if (shared != 0) m.cell(k, *l) = m.cell(*l, k) = shared;
          ++partners[k];
        }
      }
    }
  });
  for (const std::uint32_t count : partners) m.intersections_ += count;
  // Class sums once the cells are final, over each class's co-touching
  // partners above and below it (every other cell is zero). Class k
  // writes classSum_[k] only.
  parallelChunks(classes, [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> listedBy(classes, kNotLive);
    for (auto k = static_cast<std::uint32_t>(begin); k < end; ++k) {
      listedBy[k] = k;
      for (const auto& entry : footprints[reps[k]].perArray()) {
        for (const std::uint32_t l : touchers[entry.first]) {
          if (std::exchange(listedBy[l], k) == k) continue;
          m.classSum_[k] += m.count_[l] * m.cell(k, l);
        }
      }
    }
  });
  return m;
}

std::span<const std::int64_t> SharingMatrix::row(std::size_t p) const {
  check(p < n_, "SharingMatrix::row: index out of range");
  rowScratch_.resize(n_);
  const std::int64_t* cells = slotRow(slot_[p]);
  for (std::size_t q = 0; q < n_; ++q) rowScratch_[q] = cells[slot_[q]];
  rowScratch_[p] = diag_[p];
  return rowScratch_;
}

std::int64_t SharingMatrix::rowSum(std::size_t p) const {
  check(p < n_, "SharingMatrix::rowSum: index out of range");
  if (slot_[p] == 0) return 0;
  const std::uint32_t k = classOf_[p];
  return classSum_[k] + (count_[k] - std::int64_t{1}) * cell(k, k);
}

void SharingMatrix::auditInvariants() const {
  auditClasses();
  // Each clause tests first and builds its message only on a violation:
  // the engine audits after every arrival and exit.
  for (std::size_t s = 0; s < stride_; ++s) {
    if (cells_[s] != 0 || cells_[s * stride_] != 0) {
      audit::require(false, "SharingMatrix: the inactive slot's row or "
                            "column is nonzero at slot " +
                                std::to_string(s));
    }
  }
  for (const std::uint32_t k : live_) {
    for (const std::uint32_t l : live_) {
      if (cell(k, l) == kUnknown || cell(k, l) != cell(l, k)) {
        audit::require(false, "SharingMatrix: cells of live classes (" +
                                  std::to_string(k) + ", " +
                                  std::to_string(l) +
                                  ") are unknown or asymmetric");
      }
    }
  }
  for (std::uint32_t k = 0; k < classCount(); ++k) {
    const std::int64_t sum = count_[k] > 0 ? sumOfClass(k) : 0;
    if (sum != classSum_[k]) {
      audit::require(false, "SharingMatrix: stored sum of class " +
                                std::to_string(k) + " is " +
                                std::to_string(classSum_[k]) +
                                ", its live cells sum to " +
                                std::to_string(sum));
    }
  }
  for (std::size_t p = 0; p < n_; ++p) {
    if (slot_[p] != 0 ? diag_[p] < 0 : diag_[p] != 0) {
      audit::require(false, "SharingMatrix: negative diagonal (footprint "
                            "size) of an active process, or a nonzero one "
                            "of an inactive process, at process " +
                                std::to_string(p));
    }
  }
}

void SharingMatrix::auditClasses() const {
  std::vector<std::uint32_t> counts(classCount(), 0);
  std::size_t active = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    if (slot_[p] == 0) continue;
    if (slot_[p] != classOf_[p] + 1) {
      audit::require(false, "SharingMatrix: active process " +
                                std::to_string(p) +
                                " sits in the slot of another class");
    }
    ++counts[classOf_[p]];
    ++active;
  }
  audit::require(active == activeCount_,
                 "SharingMatrix: the active counter disagrees with the "
                 "active flags");
  std::size_t live = 0;
  for (std::uint32_t k = 0; k < classCount(); ++k) {
    for (std::uint32_t i = classStart_[k]; i < classStart_[k + 1]; ++i) {
      if (classOf_[classMembers_[i]] != k) {
        audit::require(false, "SharingMatrix: process " +
                                  std::to_string(classMembers_[i]) +
                                  " is listed in class " + std::to_string(k) +
                                  " but records another class");
      }
    }
    const bool listed = liveSlot_[k] < live_.size() && live_[liveSlot_[k]] == k;
    if (counts[k] != count_[k] || listed != (count_[k] > 0)) {
      audit::require(false, "SharingMatrix: class " + std::to_string(k) +
                                " counts " + std::to_string(count_[k]) +
                                " live members, its active flags " +
                                std::to_string(counts[k]) +
                                ", or its live-list entry is stale");
    }
    live += listed ? 1 : 0;
  }
  audit::require(live == live_.size(),
                 "SharingMatrix: the live class list holds a dead class");
}

void SharingMatrix::corruptRowSumForTest(std::size_t p, std::int64_t value) {
  check(p < n_, "SharingMatrix::corruptRowSumForTest: index out of range");
  classSum_[classOf_[p]] += value - rowSum(p);
}

void SharingMatrix::corruptCellForTest(std::size_t p, std::size_t q,
                                       std::int64_t value) {
  check(p < n_ && q < n_,
        "SharingMatrix::corruptCellForTest: index out of range");
  (p == q ? diag_[p] : cells_[slot_[p] * stride_ + slot_[q]]) = value;
}

void SharingMatrix::corruptClassForTest(std::size_t p, std::size_t k) {
  check(p < n_ && k < classCount(),
        "SharingMatrix::corruptClassForTest: index out of range");
  classOf_[p] = static_cast<std::uint32_t>(k);
}

namespace audit {

void activeSetAgreement(const SharingMatrix& matrix,
                        const std::vector<bool>& arrived,
                        const std::vector<bool>& exited,
                        std::size_t inSystem) {
  require(arrived.size() == matrix.size() && exited.size() == matrix.size(),
          "activeSetAgreement: live-set vectors do not match the matrix "
          "universe");
  std::size_t live = 0;
  for (std::size_t p = 0; p < matrix.size(); ++p) {
    const bool shouldBeActive = arrived[p] && !exited[p];
    require(matrix.isActive(p) == shouldBeActive,
            "SharingMatrix active set disagrees with the live process set "
            "at process " +
                std::to_string(p) + ": matrix says " +
                (matrix.isActive(p) ? "active" : "inactive") +
                ", engine says " + (shouldBeActive ? "live" : "gone"));
    live += shouldBeActive ? 1 : 0;
  }
  require(matrix.activeCount() == live && live == inSystem,
          "SharingMatrix active count (" +
              std::to_string(matrix.activeCount()) +
              ") disagrees with the engine's in-system count (" +
              std::to_string(inSystem) + ")");
}

}  // namespace audit

namespace {

// Built with += rather than "P" + to_string(): gcc 12's -Wrestrict
// false-fires on operator+(const char*, string&&) at -O2 depending on
// inlining context, and this TU builds -Werror.
std::string processLabel(std::size_t p) {
  std::string label = "P";
  label += std::to_string(p);
  return label;
}

}  // namespace

Table SharingMatrix::toTable() const {
  std::vector<std::string> headers{""};
  for (std::size_t q = 0; q < n_; ++q) headers.push_back(processLabel(q));
  Table t(std::move(headers));
  for (std::size_t p = 0; p < n_; ++p) {
    t.row().cell(processLabel(p));
    for (std::size_t q = 0; q < n_; ++q) {
      t.cell(at(p, q));
    }
  }
  return t;
}

}  // namespace laps
