#include "region/sharing.h"

#include <algorithm>
#include <string>

#include "util/audit.h"
#include "util/error.h"
#include "util/parallel.h"

namespace laps {

SharingMatrix::SharingMatrix(std::size_t n)
    : n_(n), cells_(n * n, 0), rowSums_(n, 0), active_(n, 1) {}

SharingMatrix SharingMatrix::inactive(std::size_t n) {
  SharingMatrix m(n);
  m.active_.assign(n, 0);
  return m;
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
  active_[p] = 1;
  cell(p, p) = footprints[p].totalElements();
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
}

std::span<const std::int64_t> SharingMatrix::row(std::size_t p) const {
  check(p < n_, "SharingMatrix::row: index out of range");
  return {cells_.data() + p * n_, n_};
}

std::int64_t SharingMatrix::rowSum(std::size_t p) const {
  check(p < n_, "SharingMatrix::rowSum: index out of range");
  return rowSums_[p];
}

bool SharingMatrix::isDiagonal() const {
  for (std::size_t p = 0; p < n_; ++p) {
    for (std::size_t q = 0; q < n_; ++q) {
      if (p != q && cell(p, q) != 0) return false;
    }
  }
  return true;
}

void SharingMatrix::auditInvariants() const {
  // Each clause tests first and builds its message only on a violation:
  // the engine audits after every arrival and exit, n^2 cells a time.
  for (std::size_t p = 0; p < n_; ++p) {
    const std::int64_t sum = sumRow(p);
    if (sum != rowSums_[p]) {
      audit::require(false, "SharingMatrix: stored row sum of process " +
                                std::to_string(p) + " is " +
                                std::to_string(rowSums_[p]) +
                                ", its row sums to " + std::to_string(sum));
    }
    if (!active_[p]) {
      for (std::size_t q = 0; q < n_; ++q) {
        if (cell(p, q) != 0 || cell(q, p) != 0) {
          audit::require(false, "SharingMatrix: inactive process " +
                                    std::to_string(p) +
                                    " has a nonzero row or column entry at " +
                                    std::to_string(q));
        }
      }
      continue;
    }
    audit::require(cell(p, p) >= 0,
                   "SharingMatrix: negative diagonal (footprint size) for "
                   "process " +
                       std::to_string(p));
    for (std::size_t q = p + 1; q < n_; ++q) {
      if (cell(p, q) != cell(q, p)) {
        audit::require(false, "SharingMatrix: asymmetric cells (" +
                                  std::to_string(p) + ", " +
                                  std::to_string(q) + "): " +
                                  std::to_string(cell(p, q)) + " vs " +
                                  std::to_string(cell(q, p)));
      }
    }
  }
}

void SharingMatrix::corruptRowSumForTest(std::size_t p, std::int64_t value) {
  check(p < n_, "SharingMatrix::corruptRowSumForTest: index out of range");
  rowSums_[p] = value;
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
      t.cell(cell(p, q));
    }
  }
  return t;
}

}  // namespace laps
