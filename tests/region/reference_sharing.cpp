#include "reference_sharing.h"

#include <algorithm>

#include "util/error.h"
#include "util/parallel.h"

namespace laps::reference {

SharingMatrix::SharingMatrix(std::size_t n)
    : n_(n), cells_(n * n, 0), rowSums_(n, 0), active_(n, 1) {}

SharingMatrix SharingMatrix::inactive(std::size_t n) {
  SharingMatrix m(n);
  m.active_.assign(n, 0);
  m.internPending_ = true;
  return m;
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

}  // namespace

void SharingMatrix::internClasses(std::span<const Footprint> footprints) {
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
  witness_.assign(classes, kNoWitness);
  internPending_ = false;
}

std::int64_t SharingMatrix::sumRow(std::size_t p) const {
  std::int64_t sum = -cell(p, p);
  for (std::size_t q = 0; q < n_; ++q) sum += cell(p, q);
  return sum;
}

std::size_t SharingMatrix::idx(std::size_t p, std::size_t q) const {
  check(p < n_ && q < n_, "SharingMatrix: index out of range");
  return p * n_ + q;
}

void SharingMatrix::addProcess(std::span<const Footprint> footprints,
                               std::size_t p) {
  check(footprints.size() == n_,
        "SharingMatrix::addProcess: footprint universe size mismatch");
  check(p < n_, "SharingMatrix::addProcess: index out of range");
  check(!active_[p], "SharingMatrix::addProcess: process already active");
  if (internPending_) internClasses(footprints);
  active_[p] = 1;
  cell(p, p) = footprints[p].totalElements();
  if (classOf_.empty()) {
    intersectRow(footprints, p);
    return;
  }
  std::uint32_t& witness = witness_[classOf_[p]];
  if (witness == kNoWitness) {
    intersectRow(footprints, p);
    witness = static_cast<std::uint32_t>(p);
  } else {
    copyTwin(footprints, p, witness);
  }
}

void SharingMatrix::intersectRow(std::span<const Footprint> footprints,
                                 std::size_t p) {
  // Only the active processes intersect p; inactive rows stay zero. Each
  // index q owns cells (p, q) and (q, p) exclusively, so the parallel
  // update is bit-identical to the serial loop at any thread count. The
  // operand order mirrors compute()'s upper-triangle evaluation
  // (footprints[min].sharedElements(footprints[max])), so the values are
  // the very same calls a from-scratch compute over the active set makes.
  // rowSums_[q] is owned by index q too, so its update rides along.
  const auto updateRange = [&](std::size_t begin, std::size_t end) {
    for (std::size_t q = begin; q < end; ++q) {
      if (q == p || !active_[q]) continue;
      const std::size_t lo = std::min(p, q);
      const std::size_t hi = std::max(p, q);
      const std::int64_t shared =
          footprints[lo].sharedElements(footprints[hi]);
      cell(p, q) = shared;
      cell(q, p) = shared;
      rowSums_[q] += shared;
    }
  };
  // A row update is O(n) cheap intersections; below this width the
  // pool's dispatch+sync overhead exceeds the whole row's work (the
  // committed BM_SharingMatrixIncremental numbers show the update in
  // single-digit microseconds even at 660 processes), so small
  // universes run inline. Same calls, same cells — identical result.
  constexpr std::size_t kParallelRowCutoff = 256;
  if (n_ < kParallelRowCutoff) {
    updateRange(0, n_);
  } else {
    parallelChunks(n_, updateRange);
  }
  rowSums_[p] = sumRow(p);
}

void SharingMatrix::copyTwin(std::span<const Footprint> footprints,
                             std::size_t p, std::size_t twin) {
  // The class contract: M[p][q] == M[twin][q] for q outside {p, twin}.
  // Row and column p are zero while p is inactive, so a zero cell needs
  // no write. The intra pair is the one intersection, in compute()'s
  // operand order.
  const std::int64_t* twinRow = cells_.data() + twin * n_;
  std::int64_t* row = cells_.data() + p * n_;
  std::int64_t sum = 0;
  for (std::size_t q = 0; q < n_; ++q) {
    const std::int64_t shared = twinRow[q];
    if (shared == 0 || q == p || q == twin) continue;
    row[q] = shared;
    cell(q, p) = shared;
    rowSums_[q] += shared;
    sum += shared;
  }
  const std::int64_t intra = footprints[std::min(p, twin)].sharedElements(
      footprints[std::max(p, twin)]);
  row[twin] = intra;
  cell(twin, p) = intra;
  rowSums_[twin] += intra;
  rowSums_[p] = sum + intra;
}

void SharingMatrix::removeProcess(std::size_t p) {
  check(p < n_, "SharingMatrix::removeProcess: index out of range");
  check(active_[p], "SharingMatrix::removeProcess: process not active");
  active_[p] = 0;
  // Inactive processes' cells are already zero, so only the active
  // ones' column cells (strided, one cache line each) need a visit.
  for (std::size_t q = 0; q < n_; ++q) {
    if (!active_[q]) continue;
    rowSums_[q] -= cell(q, p);
    cell(q, p) = 0;
  }
  std::fill_n(cells_.begin() + static_cast<std::ptrdiff_t>(p * n_), n_, 0);
  rowSums_[p] = 0;
  if (classOf_.empty() || witness_[classOf_[p]] != p) return;
  // The witness left: any other active member takes over, or none.
  const std::uint32_t k = classOf_[p];
  witness_[k] = kNoWitness;
  for (std::uint32_t i = classStart_[k]; i < classStart_[k + 1]; ++i) {
    if (active_[classMembers_[i]]) {
      witness_[k] = classMembers_[i];
      break;
    }
  }
}

std::size_t SharingMatrix::classOf(std::size_t p) const {
  check(p < n_, "SharingMatrix::classOf: index out of range");
  return classOf_.empty() ? p : classOf_[p];
}

std::size_t SharingMatrix::classCount() const {
  return classOf_.empty() ? n_ : witness_.size();
}

bool SharingMatrix::isActive(std::size_t p) const {
  check(p < n_, "SharingMatrix::isActive: index out of range");
  return active_[p] != 0;
}

std::size_t SharingMatrix::activeCount() const {
  std::size_t count = 0;
  for (const char a : active_) count += static_cast<std::size_t>(a);
  return count;
}

SharingMatrix SharingMatrix::compute(std::span<const Footprint> footprints) {
  const std::size_t n = footprints.size();
  SharingMatrix m(n);
  m.internClasses(footprints);
  // Every process is active: each class's smallest member witnesses it.
  for (std::size_t k = 0; k < m.witness_.size(); ++k) {
    m.witness_[k] = m.classMembers_[m.classStart_[k]];
  }
  for (std::size_t p = 0; p < n; ++p) {
    m.cell(p, p) = footprints[p].totalElements();
  }
  if (n < 2) return m;

  // The upper triangle, flattened so static chunks carry near-equal
  // work (chunking rows would leave the last thread the short rows).
  // rowStart[p] is the linear index of pair (p, p+1).
  std::vector<std::size_t> rowStart(n - 1);
  std::size_t acc = 0;
  for (std::size_t p = 0; p + 1 < n; ++p) {
    rowStart[p] = acc;
    acc += n - 1 - p;
  }
  const std::size_t pairs = acc;

  // Each linear index owns cells (p, q) and (q, p) exclusively, and
  // sharedElements is a pure function of the two footprints — so the
  // matrix is bit-identical to the serial loop at any thread count.
  // Within a chunk (p, q) advances incrementally: the unranking
  // upper_bound runs once per chunk, not per pair.
  parallelChunks(pairs, [&](std::size_t begin, std::size_t end) {
    std::size_t p =
        static_cast<std::size_t>(
            std::upper_bound(rowStart.begin(), rowStart.end(), begin) -
            rowStart.begin()) -
        1;
    std::size_t q = p + 1 + (begin - rowStart[p]);
    for (std::size_t k = begin; k < end; ++k) {
      const std::int64_t shared = footprints[p].sharedElements(footprints[q]);
      m.cell(p, q) = shared;
      m.cell(q, p) = shared;
      if (++q == n) {
        ++p;
        q = p + 1;
      }
    }
  });
  // Row sums once the cells are final. Serial: n^2 additions are a few
  // percent of the intersections above, less than a second pool
  // dispatch costs at 8 threads.
  for (std::size_t p = 0; p < n; ++p) m.rowSums_[p] = m.sumRow(p);
  return m;
}

std::int64_t SharingMatrix::at(std::size_t p, std::size_t q) const {
  return cells_[idx(p, q)];
}

void SharingMatrix::set(std::size_t p, std::size_t q, std::int64_t value) {
  std::int64_t& target = cells_[idx(p, q)];
  if (p != q) rowSums_[p] += value - target;
  target = value;
  // One written cell can break the class contract: singleton classes.
  internPending_ = false;
  classOf_.clear();
  classStart_.clear();
  classMembers_.clear();
  witness_.clear();
}

std::span<const std::int64_t> SharingMatrix::row(std::size_t p) const {
  check(p < n_, "SharingMatrix::row: index out of range");
  return {cells_.data() + p * n_, n_};
}

std::int64_t SharingMatrix::rowSum(std::size_t p) const {
  check(p < n_, "SharingMatrix::rowSum: index out of range");
  return rowSums_[p];
}

}  // namespace laps::reference
