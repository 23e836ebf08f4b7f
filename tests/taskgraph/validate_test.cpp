/// \file validate_test.cpp
/// \brief validateWorkload checks each access's bounds analytically
/// (accessFootprintBounds, never enumerating); its verdicts and error
/// messages must be those of the enumerated footprint's bounds.

#include "taskgraph/validate.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace laps {
namespace {

/// One array V of \p elements and one process "p" running \p map over
/// \p space.
Workload single(std::int64_t elements, IterationSpace space, AffineMap map) {
  Workload w;
  const ArrayId v = w.arrays.add("V", {elements});
  ProcessSpec p;
  p.name = "p";
  p.nests.push_back(LoopNest{std::move(space),
                             {ArrayAccess{v, std::move(map), AccessKind::Read}},
                             1});
  w.graph.addProcess(std::move(p));
  return w;
}

/// The message validateWorkload throws, or "" when it accepts.
std::string verdict(const Workload& w) {
  try {
    validateWorkload(w);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ValidateWorkloadBounds, AcceptsAccessesThatFillTheArrayExactly) {
  // Strided, reversed and constant addresses whose extremes are the
  // array's first and last elements.
  EXPECT_EQ(verdict(single(100, IterationSpace({LoopDim{0, 100, 3}}),
                           AffineMap{AffineExpr({1}, 0)})),
            "");
  EXPECT_EQ(verdict(single(100, IterationSpace::box({{0, 10}, {0, 10}}),
                           AffineMap{AffineExpr({-10, -1}, 99)})),
            "");
  EXPECT_EQ(verdict(single(1, IterationSpace::box({{0, 7}}),
                           AffineMap{AffineExpr({0}, 0)})),
            "");
}

TEST(ValidateWorkloadBounds, OutOfBoundsMessagesNameTheEnumeratedBounds) {
  EXPECT_EQ(verdict(single(4096, IterationSpace::box({{0, 10}}),
                           AffineMap{AffineExpr({1}, 4090)})),
            "validateWorkload: process 'p' accesses array 'V' out of bounds "
            "([4090, 4100) vs 4096 elements)");
  // Negative coefficient: the low end is the last iteration's address.
  EXPECT_EQ(verdict(single(100, IterationSpace({LoopDim{0, 10, 3}}),
                           AffineMap{AffineExpr({-2}, 3)})),
            "validateWorkload: process 'p' accesses array 'V' out of bounds "
            "([-15, 4) vs 100 elements)");
}

TEST(ValidateWorkloadBounds, EmptySpacesAreNotChecked) {
  EXPECT_EQ(verdict(single(10, IterationSpace::box({{5, 5}}),
                           AffineMap{AffineExpr({1}, 1000)})),
            "");
}

TEST(ValidateWorkloadBounds, OverBudgetAccessIsRejectedEagerly) {
  // A stride-2 address emits one fragment per iteration: 2^24 of them
  // exceed kDefaultFootprintBudget (2^23), though every address is in
  // bounds. The budget is tested in O(rank), before any enumeration.
  EXPECT_EQ(verdict(single(std::int64_t{1} << 25,
                           IterationSpace::box({{0, std::int64_t{1} << 24}}),
                           AffineMap{AffineExpr({2}, 0)})),
            "accessFootprint: enumeration budget exceeded; shrink the space "
            "or raise the budget");
  EXPECT_EQ(verdict(single(std::int64_t{1} << 25,
                           IterationSpace::box({{0, std::int64_t{1} << 22}}),
                           AffineMap{AffineExpr({2}, 0)})),
            "");
}

}  // namespace
}  // namespace laps
