/// \file parallel_analysis_test.cpp
/// \brief Parallel-vs-serial bit-identity of the analysis pipeline, and
/// the strided-footprint fast path against per-point enumeration.
///
/// SharingMatrix::compute and Workload::footprints() promise results
/// bit-identical to the serial loop at any thread count (static
/// chunking + ordered collection, each index writing only its own
/// cells). These tests pin that promise at {1, 2, 8} threads, and pin
/// accessFootprint's strided fast path (index-space union + sorted
/// expansion) against brute-force per-point enumeration on randomized
/// affine accesses.

#include <gtest/gtest.h>

#include "core/laps.h"
#include "reference_sharing.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/// The serial reference: the textbook O(n^2) pairwise loop, written
/// into the dense test-only matrix.
reference::SharingMatrix serialSharingMatrix(
    std::span<const Footprint> footprints) {
  reference::SharingMatrix m(footprints.size());
  for (std::size_t p = 0; p < footprints.size(); ++p) {
    m.set(p, p, footprints[p].totalElements());
    for (std::size_t q = p + 1; q < footprints.size(); ++q) {
      const std::int64_t shared = footprints[p].sharedElements(footprints[q]);
      m.set(p, q, shared);
      m.set(q, p, shared);
    }
  }
  return m;
}

void expectMatricesIdentical(const SharingMatrix& a,
                             const reference::SharingMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    for (std::size_t q = 0; q < a.size(); ++q) {
      ASSERT_EQ(a.at(p, q), b.at(p, q)) << "cell (" << p << ", " << q << ")";
    }
  }
}

TEST(ParallelAnalysisTest, SharingMatrixBitIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 4);
  const auto footprints = mix.footprints();
  const reference::SharingMatrix serial = serialSharingMatrix(footprints);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    setParallelThreadCount(threads);
    const SharingMatrix m = SharingMatrix::compute(footprints);
    expectMatricesIdentical(m, serial);
  }
}

TEST(ParallelAnalysisTest, FootprintsBitIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 3);

  setParallelThreadCount(1);
  const std::vector<Footprint> reference = mix.footprints();
  for (const std::size_t threads : {2u, 8u}) {
    setParallelThreadCount(threads);
    const std::vector<Footprint> fps = mix.footprints();
    ASSERT_EQ(fps.size(), reference.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      // IntervalSet's representation is canonical, so set equality over
      // the per-array maps is bit-identity of the footprints.
      ASSERT_EQ(fps[i].perArray(), reference[i].perArray())
          << "process " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelAnalysisTest, SharingMatrixSmallSizes) {
  const ThreadCountGuard guard;
  // Degenerate sizes around the chunking boundaries: 0, 1 (no pairs)
  // and 2..5 processes with 8 threads (fewer pairs than threads).
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 1);
  const auto footprints = mix.footprints();
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u}) {
    if (n > footprints.size()) continue;
    const std::span<const Footprint> slice(footprints.data(), n);
    const reference::SharingMatrix serial = serialSharingMatrix(slice);
    for (const std::size_t threads : {1u, 8u}) {
      setParallelThreadCount(threads);
      expectMatricesIdentical(SharingMatrix::compute(slice), serial);
    }
  }
}

/// Brute-force oracle: evaluate the linearized access at every
/// iteration point, one addPoint per point (the pre-fast-path
/// behaviour, normalized through the trusted sort path).
IntervalSet perPointFootprint(const IterationSpace& space,
                              const ArrayAccess& access,
                              const ArrayInfo& info) {
  if (space.empty()) return {};
  const AffineExpr linear = linearizeAccess(access, info);
  IntervalSet::Builder builder;
  space.forEachPoint([&](std::span<const std::int64_t> point) {
    builder.addPoint(linear.eval(point));
  });
  return builder.build();
}

TEST(ParallelAnalysisTest, StridedFastPathMatchesPerPointEnumeration) {
  Rng rng(20260727);
  for (int trial = 0; trial < 200; ++trial) {
    // Random 1-3D space (steps 1..3, small extents) and a random affine
    // access: coefficients span negative, zero, non-multiples of the
    // run stride (mixed residue classes) and large gaps.
    const std::size_t rank = static_cast<std::size_t>(rng.range(1, 3));
    std::vector<LoopDim> dims;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t lo = rng.range(-4, 4);
      dims.push_back(LoopDim{lo, lo + rng.range(0, 9), rng.range(1, 3)});
    }
    const IterationSpace space{dims};

    ArrayTable arrays;
    const ArrayId id = arrays.add("A", {128, 16}, 4);
    std::vector<std::int64_t> rowCoeffs(rank);
    std::vector<std::int64_t> colCoeffs(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      rowCoeffs[d] = rng.range(-6, 6);
      colCoeffs[d] = rng.range(-3, 3);
    }
    const ArrayAccess access{
        id,
        AffineMap{AffineExpr(rowCoeffs, rng.range(0, 8)),
                  AffineExpr(colCoeffs, rng.range(0, 8))},
        AccessKind::Read};

    const IntervalSet fast = accessFootprint(space, access, arrays.at(id));
    const IntervalSet oracle = perPointFootprint(space, access, arrays.at(id));
    ASSERT_EQ(fast, oracle)
        << "trial " << trial << " space " << space.toString();
  }
}

TEST(ParallelAnalysisTest, StridedFastPathLargeSingleResidueShape) {
  // The BM_FootprintProg1 shape: overlapping stride-16 runs in a single
  // residue class, where the index-space union performs the dedup.
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {10000, 16}, 4);
  const ArrayAccess access{
      a, AffineMap{AffineExpr({1000, 1}, 0), AffineExpr::constant(5)},
      AccessKind::Read};
  const auto space = IterationSpace::box({{0, 8}, {0, 3000}});
  const IntervalSet fast = accessFootprint(space, access, arrays.at(a));
  const IntervalSet oracle = perPointFootprint(space, access, arrays.at(a));
  EXPECT_EQ(fast, oracle);
  // 10000 distinct elements, stride 16 apart: no coalescing.
  EXPECT_EQ(fast.cardinality(), 10000);
  EXPECT_EQ(fast.pieceCount(), 10000u);
}

}  // namespace
}  // namespace laps
