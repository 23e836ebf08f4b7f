#include "region/footprint.h"

#include <algorithm>
#include <cstdlib>

#include "util/error.h"

namespace laps {

AffineExpr linearizeAccess(const ArrayAccess& access, const ArrayInfo& info) {
  std::vector<std::int64_t> terms;
  appendLinearized(access, info, terms);
  const std::int64_t constant = terms.back();
  terms.pop_back();
  return AffineExpr(std::move(terms), constant);
}

std::size_t appendLinearized(const ArrayAccess& access, const ArrayInfo& info,
                             std::vector<std::int64_t>& out) {
  if (access.map.results() != info.rank()) {
    fail("linearizeAccess: access rank does not match array " + info.name);
  }
  // Σ_d stride_d · expr_d, the row-major strides accumulated innermost
  // first; the rank is the largest of the expressions' ranks.
  std::size_t rank = 0;
  for (const AffineExpr& expr : access.map.exprs()) {
    rank = std::max(rank, expr.rank());
  }
  const std::size_t at = out.size();
  out.resize(at + rank + 1, 0);
  std::int64_t stride = 1;
  for (std::size_t d = info.rank(); d-- > 0;) {
    const AffineExpr& expr = access.map.expr(d);
    for (std::size_t k = 0; k < expr.rank(); ++k) {
      out[at + k] += expr.coeff(k) * stride;
    }
    out[at + rank] += expr.constantTerm() * stride;
    stride *= info.extents[d];
  }
  return rank;
}

namespace {

/// How accessFootprint enumerates an access image: one run along runDim
/// per point of the other dimensions.
struct RunPlan {
  std::size_t runDim;       ///< the space's rank: the address is constant
  std::int64_t runStep;     ///< address step along runDim
  std::int64_t outerCombos; ///< points of the other dimensions
  std::int64_t fragments;   ///< intervals the enumeration emits
};

/// Picks the run dimension of \p linear over the non-empty \p space
/// and enforces the enumeration budget, in O(rank): the one place both
/// accessFootprint and accessFootprintBounds test it.
RunPlan planRuns(const IterationSpace& space, const AffineExpr& linear,
                 std::int64_t budget) {
  // The "run" dimension: the loop whose per-iteration address step is
  // smallest in magnitude. Its iterations become one strided run per
  // combination of the remaining dimensions.
  const std::size_t rank = space.rank();
  RunPlan plan{rank, 0, 1, 1};
  for (std::size_t d = 0; d < rank; ++d) {
    const std::int64_t step = linear.coeff(d) * space.dim(d).step;
    if (step == 0) continue;
    if (plan.runDim == rank || std::llabs(step) < std::llabs(plan.runStep)) {
      plan.runDim = d;
      plan.runStep = step;
    }
  }
  if (plan.runDim == rank) return plan;  // a single element
  for (std::size_t d = 0; d < rank; ++d) {
    if (d != plan.runDim) plan.outerCombos *= space.dim(d).tripCount();
  }
  const std::int64_t fragmentsPerRun =
      std::llabs(plan.runStep) == 1 ? 1 : space.dim(plan.runDim).tripCount();
  plan.fragments = plan.outerCombos * fragmentsPerRun;
  check(plan.fragments <= budget,
        "accessFootprint: enumeration budget exceeded; shrink the space or "
        "raise the budget");
  return plan;
}

}  // namespace

Interval accessFootprintBounds(const IterationSpace& space,
                               const ArrayAccess& access,
                               const ArrayInfo& info, std::int64_t budget) {
  if (space.empty()) return {};
  const AffineExpr linear = linearizeAccess(access, info);
  (void)planRuns(space, linear, budget);
  // A linear function over a box takes its extremes at corners: per
  // dimension, the smaller and the larger of c·lo and c·last.
  const std::size_t rank = space.rank();
  std::vector<std::int64_t> origin(rank);
  for (std::size_t d = 0; d < rank; ++d) origin[d] = space.dim(d).lo;
  std::int64_t lo = linear.eval(origin);
  std::int64_t hi = lo;
  for (std::size_t d = 0; d < rank; ++d) {
    const LoopDim& dim = space.dim(d);
    const std::int64_t span =
        linear.coeff(d) * (dim.tripCount() - 1) * dim.step;
    (span < 0 ? lo : hi) += span;
  }
  return Interval{lo, hi + 1};
}

IntervalSet accessFootprint(const IterationSpace& space,
                            const ArrayAccess& access, const ArrayInfo& info,
                            std::int64_t budget) {
  if (space.empty()) return {};
  const AffineExpr linear = linearizeAccess(access, info);
  const RunPlan plan = planRuns(space, linear, budget);
  const std::size_t rank = space.rank();
  const std::size_t runDim = plan.runDim;
  const std::int64_t runStep = plan.runStep;

  if (runDim == rank) {
    // Address independent of every loop variable: a single element.
    std::vector<std::int64_t> origin(rank);
    for (std::size_t d = 0; d < rank; ++d) origin[d] = space.dim(d).lo;
    const std::int64_t offset = linear.eval(origin);
    return IntervalSet::point(offset);
  }

  const std::int64_t runCount = space.dim(runDim).tripCount();

  // Enumerate all dimensions except runDim with an odometer, collecting
  // one run start per combination. Every run is the same arithmetic
  // progression shape {lo + k*stride : 0 <= k < runCount}.
  std::vector<std::int64_t> runStarts;
  runStarts.reserve(static_cast<std::size_t>(plan.outerCombos));
  std::vector<std::int64_t> point(rank);
  for (std::size_t d = 0; d < rank; ++d) point[d] = space.dim(d).lo;

  const std::int64_t spanLength = (runCount - 1) * runStep;  // signed
  const std::int64_t stride = std::llabs(runStep);
  for (bool more = true; more;) {
    const std::int64_t first = linear.eval(point);
    runStarts.push_back(runStep > 0 ? first : first + spanLength);
    // Advance the odometer, skipping runDim.
    more = false;
    for (std::size_t d = rank; d > 0;) {
      --d;
      if (d == runDim) continue;
      point[d] += space.dim(d).step;
      if (point[d] < space.dim(d).hi) {
        more = true;
        break;
      }
      point[d] = space.dim(d).lo;
    }
  }

  if (stride == 1) {
    // Contiguous runs: one interval each; normalize coalesces overlaps
    // (and skips its sort when the odometer emitted in ascending order).
    IntervalSet::Builder builder(runStarts.size());
    for (const std::int64_t lo : runStarts) builder.add(lo, lo + runCount);
    return builder.build();
  }

  // Strided fast path: all runs share one stride. When they also share
  // one residue class mod the stride (the common row-major case — every
  // outer-dimension address step is a multiple of the run stride), the
  // union is computed on run *indices*: each run maps to the index
  // interval [(lo - r)/stride, +runCount), the small index union
  // deduplicates overlapping runs exactly, and the expansion back to
  // element offsets is emitted sorted, disjoint and non-adjacent — so
  // build() never sorts and never revisits duplicates.
  const auto floorMod = [](std::int64_t value, std::int64_t m) {
    const std::int64_t r = value % m;
    return r < 0 ? r + m : r;
  };
  const std::int64_t residue = floorMod(runStarts.front(), stride);
  bool singleResidue = true;
  for (const std::int64_t lo : runStarts) {
    if (floorMod(lo, stride) != residue) {
      singleResidue = false;
      break;
    }
  }
  if (singleResidue) {
    IntervalSet::Builder indexRuns(runStarts.size());
    for (const std::int64_t lo : runStarts) {
      const std::int64_t i0 = (lo - residue) / stride;
      indexRuns.add(i0, i0 + runCount);
    }
    const IntervalSet indexSet = indexRuns.build();
    IntervalSet::Builder builder(
        static_cast<std::size_t>(indexSet.cardinality()));
    for (const Interval& iv : indexSet.pieces()) {
      builder.addStridedRun(residue + iv.lo * stride, stride,
                            iv.hi - iv.lo);
    }
    return builder.build();
  }

  // Mixed residues (outer steps not multiples of the run stride): emit
  // each run in bulk and let normalize sort the interleaved result.
  IntervalSet::Builder builder(static_cast<std::size_t>(plan.fragments));
  for (const std::int64_t lo : runStarts) {
    builder.addStridedRun(lo, stride, runCount);
  }
  return builder.build();
}

void Footprint::add(ArrayId array, const IntervalSet& elements) {
  if (elements.empty()) return;
  auto [it, inserted] = perArray_.try_emplace(array, elements);
  if (!inserted) {
    it->second = it->second.unite(elements);
  }
}

const IntervalSet& Footprint::of(ArrayId array) const {
  static const IntervalSet kEmpty;
  const auto it = perArray_.find(array);
  return it == perArray_.end() ? kEmpty : it->second;
}

bool Footprint::touches(ArrayId array) const {
  return perArray_.contains(array);
}

std::vector<ArrayId> Footprint::arrays() const {
  std::vector<ArrayId> ids;
  ids.reserve(perArray_.size());
  for (const auto& [id, _] : perArray_) ids.push_back(id);
  return ids;
}

std::int64_t Footprint::totalElements() const {
  std::int64_t total = 0;
  for (const auto& [_, set] : perArray_) total += set.cardinality();
  return total;
}

std::int64_t Footprint::sharedElements(const Footprint& other) const {
  std::int64_t total = 0;
  for (const auto& [id, set] : perArray_) {
    const auto it = other.perArray_.find(id);
    if (it != other.perArray_.end()) {
      total += set.intersectCardinality(it->second);
    }
  }
  return total;
}

void Footprint::merge(const Footprint& other) {
  for (const auto& [id, set] : other.perArray_) {
    add(id, set);
  }
}

}  // namespace laps
