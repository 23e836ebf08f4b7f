/// \file footprint_memo_test.cpp
/// \brief Workload::footprints() enumerates one footprint per process
/// shape and copies it under renamed array ids; every result must equal
/// the process's own ProcessSpec::footprint, at thread counts {1, 8}.
///
/// Inputs: shuffled Fig. 7 suite mixes (eight copies of each
/// application at |T| = 48, the shapes the memo shares), a 2048-request
/// service universe, and hand-built aliasing cases where a wrong shape
/// key would hand one process another's footprint.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/laps.h"
#include "util/parallel.h"

namespace laps {
namespace {

/// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { setParallelThreadCount(0); }
};

/// Every footprint of \p w equals its process's own enumeration.
void expectMatchesPerProcess(const Workload& w, const std::string& where) {
  const std::vector<Footprint> fps = w.footprints();
  ASSERT_EQ(fps.size(), w.graph.processCount()) << where;
  for (ProcessId p = 0; p < fps.size(); ++p) {
    // IntervalSet is canonical: map equality is bit-identity.
    ASSERT_EQ(fps[p].perArray(),
              w.graph.process(p).footprint(w.arrays).perArray())
        << where << ", process " << p;
  }
}

/// The Fig. 7 mix of \p count applications cycled through the suite,
/// merged in a seeded shuffled order (renumbering processes and
/// arrays, as the end-to-end closed-lsm workload does).
Workload shuffledMix(std::size_t count, std::uint64_t seed) {
  const std::vector<Application> suite = standardSuite();
  std::vector<Application> mix;
  for (std::size_t i = 0; i < count; ++i) {
    mix.push_back(suite[i % suite.size()]);
  }
  Rng rng(seed);
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.below(i + 1)]);
  }
  return concurrentScenario(mix, count);
}

TEST(FootprintMemo, MatchesPerProcessOnSuiteMixes) {
  const ThreadCountGuard guard;
  for (const std::size_t apps : {1u, 6u, 48u}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      const Workload mix = shuffledMix(apps, seed);
      for (const std::size_t threads : {1u, 8u}) {
        setParallelThreadCount(threads);
        expectMatchesPerProcess(
            mix, std::to_string(apps) + " apps, seed " + std::to_string(seed) +
                     ", " + std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(FootprintMemo, MatchesPerProcessOnServiceUniverse) {
  const ThreadCountGuard guard;
  ServiceWorkloadParams params;
  params.requestCount = 2048;
  params.keyCount = 48;
  const Workload service = makeServiceWorkload(params);
  for (const std::size_t threads : {1u, 8u}) {
    setParallelThreadCount(threads);
    expectMatchesPerProcess(service,
                            "service, " + std::to_string(threads) + " threads");
  }
}

ArrayAccess access(ArrayId array, AffineMap map) {
  return ArrayAccess{array, std::move(map), AccessKind::Read};
}

ProcessSpec process(std::string name, std::vector<LoopNest> nests) {
  ProcessSpec p;
  p.name = std::move(name);
  p.nests = std::move(nests);
  return p;
}

TEST(FootprintMemo, AliasingCasesKeepTheirOwnFootprints) {
  const ThreadCountGuard guard;
  Workload w;
  const ArrayId a = w.arrays.add("A", {10, 10});
  const ArrayId b = w.arrays.add("B", {10, 20});  // same rank, other extents
  const ArrayId c = w.arrays.add("C", {100});     // other rank
  const ArrayId x = w.arrays.add("x", {64});
  const ArrayId y = w.arrays.add("y", {64});
  const ArrayId z = w.arrays.add("z", {64});
  const IterationSpace box = IterationSpace::box({{0, 5}, {0, 5}});
  const AffineMap ij{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)};
  const AffineMap tenIPlusJ{AffineExpr({10, 1}, 0)};
  const IterationSpace line = IterationSpace::box({{0, 20}});
  const AffineMap i{AffineExpr({1}, 0)};
  const AffineMap iPlus5{AffineExpr({1}, 5)};
  // One nest running i over the first array and i + 5 over the second.
  const auto pair = [&](ArrayId first, ArrayId second) {
    return std::vector<ArrayAccess>{access(first, i), access(second, iPlus5)};
  };
  auto& g = w.graph;
  // Equal nests over arrays of different extents: the linearized
  // addresses differ (row strides 10 and 20), so do the footprints.
  g.addProcess(process("A[i][j]", {LoopNest{box, {access(a, ij)}, 1}}));
  g.addProcess(process("B[i][j]", {LoopNest{box, {access(b, ij)}, 1}}));
  // A rank-1 array addressed 10i + j: the same linear address as A[i][j].
  g.addProcess(process("C[10i+j]", {LoopNest{box, {access(c, tenIPlusJ)}, 1}}));
  // One array twice vs two arrays with the same maps, in both orders.
  g.addProcess(process("x x", {LoopNest{line, pair(x, x), 1}}));
  g.addProcess(process("x y", {LoopNest{line, pair(x, y), 1}}));
  g.addProcess(process("y x", {LoopNest{line, pair(y, x), 1}}));
  g.addProcess(process("z z", {LoopNest{line, pair(z, z), 1}}));
  g.addProcess(process("z y", {LoopNest{line, pair(z, y), 1}}));
  // The same arrays in a second nest: first-appearance numbering spans
  // nests.
  g.addProcess(process("x | y", {LoopNest{line, {access(x, i)}, 1},
                                 LoopNest{line, {access(y, iPlus5)}, 1}}));
  g.addProcess(process("x | x", {LoopNest{line, {access(x, i)}, 1},
                                 LoopNest{line, {access(x, iPlus5)}, 1}}));
  // Rank-0 nests (one iteration, constant addresses) and empty nests.
  const IterationSpace point{std::vector<LoopDim>{}};
  const AffineMap seven{AffineExpr::constant(7)};
  g.addProcess(process("rank0 x", {LoopNest{point, {access(x, seven)}, 1}}));
  g.addProcess(process("rank0 y", {LoopNest{point, {access(y, seven)}, 1}}));
  const IterationSpace empty = IterationSpace::box({{3, 3}});
  g.addProcess(process("empty x", {LoopNest{empty, {access(x, i)}, 1}}));
  g.addProcess(process("empty y + x", {LoopNest{empty, {access(y, i)}, 1},
                                       LoopNest{line, {access(x, i)}, 1}}));
  g.addProcess(process("x + empty y", {LoopNest{line, {access(x, i)}, 1},
                                       LoopNest{empty, {access(y, i)}, 1}}));
  g.addProcess(process("no nests", {}));
  // The same bounds with another step, and another constant term.
  const IterationSpace everyThird({LoopDim{0, 20, 3}});
  g.addProcess(process("x step 3", {LoopNest{everyThird, {access(x, i)}, 1}}));
  g.addProcess(process("y[i]", {LoopNest{line, {access(y, i)}, 1}}));
  g.addProcess(process("y[i+5]", {LoopNest{line, {access(y, iPlus5)}, 1}}));
  // Two shapes above again, under other arrays.
  g.addProcess(process("B'[i][j]", {LoopNest{box, {access(b, ij)}, 1}}));
  g.addProcess(process("y y", {LoopNest{line, pair(y, y), 1}}));
  for (const std::size_t threads : {1u, 8u}) {
    setParallelThreadCount(threads);
    expectMatchesPerProcess(w, std::to_string(threads) + " threads");
  }
  const std::vector<Footprint> fps = w.footprints();
  EXPECT_NE(fps[0].of(a), fps[1].of(b));
  EXPECT_EQ(fps[0].of(a), fps[2].of(c));
  EXPECT_EQ(fps[3].arrays(), std::vector<ArrayId>{x});
  EXPECT_EQ(fps[4].arrays(), (std::vector<ArrayId>{x, y}));
  EXPECT_EQ(fps[5].of(x), IntervalSet::range(5, 25));
  EXPECT_EQ(fps[10].of(x), IntervalSet::point(7));
  EXPECT_EQ(fps[11].of(y), IntervalSet::point(7));
  EXPECT_EQ(fps[12].arrays(), std::vector<ArrayId>{});
  EXPECT_EQ(fps[13].arrays(), std::vector<ArrayId>{x});
  EXPECT_EQ(fps[16].of(x).cardinality(), 7);
  EXPECT_EQ(fps[17].of(y), IntervalSet::range(0, 20));
  EXPECT_EQ(fps[18].of(y), IntervalSet::range(5, 25));
}

}  // namespace
}  // namespace laps
