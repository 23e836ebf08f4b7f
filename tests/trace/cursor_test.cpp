#include "trace/cursor.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "core/experiment.h"
#include "region/sharing.h"
#include "taskgraph/validate.h"
#include "util/audit.h"
#include "util/rng.h"
#include "workloads/apps.h"

namespace laps {
namespace {

struct Rig {
  Workload workload;
  ArrayId v = 0;

  Rig() { v = workload.arrays.add("V", {4096}, 4); }

  ProcessId addSimpleProcess(std::int64_t lo, std::int64_t hi,
                             std::int64_t cyclesPerIter = 1) {
    ProcessSpec p;
    p.name = "p";
    p.nests.push_back(LoopNest{
        IterationSpace::box({{lo, hi}}),
        {ArrayAccess{v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        cyclesPerIter});
    return workload.graph.addProcess(std::move(p));
  }
};

std::vector<TraceStep> drain(ProcessTraceCursor& cursor) {
  std::vector<TraceStep> steps;
  TraceStep s;
  while (cursor.next(s)) steps.push_back(s);
  return steps;
}

TEST(ProcessTraceCursor, EmitsEveryReferenceInOrder) {
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 100);
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  const auto steps = drain(cursor);
  ASSERT_EQ(steps.size(), 100u);
  const std::uint64_t base = space.baseOf(rig.v);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_TRUE(steps[i].isRef);
    EXPECT_FALSE(steps[i].isWrite);
    EXPECT_EQ(steps[i].dataAddr, base + i * 4);
    EXPECT_EQ(steps[i].computeCycles, 1);
  }
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.stepsEmitted(), 100u);
}

TEST(ProcessTraceCursor, MultipleAccessesPerIteration) {
  Rig rig;
  ProcessSpec p;
  p.name = "two-ref";
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 10}}),
      {ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read},
       ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 100)}, AccessKind::Write}},
      /*computeCyclesPerIter=*/7});
  const ProcessId id = rig.workload.graph.addProcess(std::move(p));
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  const auto steps = drain(cursor);
  ASSERT_EQ(steps.size(), 20u);
  // Compute cycles ride on the last access of each iteration only.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const bool last = (i % 2) == 1;
    EXPECT_EQ(steps[i].computeCycles, last ? 7 : 0) << i;
    EXPECT_EQ(steps[i].isWrite, last);
  }
}

TEST(ProcessTraceCursor, PureComputeNestOneStepPerIteration) {
  Rig rig;
  ProcessSpec p;
  p.name = "compute";
  p.nests.push_back(LoopNest{IterationSpace::box({{0, 25}}), {}, 40});
  const ProcessId id = rig.workload.graph.addProcess(std::move(p));
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  const auto steps = drain(cursor);
  ASSERT_EQ(steps.size(), 25u);
  std::int64_t total = 0;
  for (const auto& s : steps) {
    EXPECT_FALSE(s.isRef);
    total += s.computeCycles;
  }
  EXPECT_EQ(total, 1000);
}

TEST(ProcessTraceCursor, MultiNestSequencing) {
  Rig rig;
  ProcessSpec p;
  p.name = "multi";
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 5}}),
      {ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
      1});
  p.nests.push_back(LoopNest{IterationSpace::box({{0, 0}}), {}, 1});  // empty
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 3}}),
      {ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 50)}, AccessKind::Write}},
      1});
  const ProcessId id = rig.workload.graph.addProcess(std::move(p));
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  const auto steps = drain(cursor);
  ASSERT_EQ(steps.size(), 8u);
  EXPECT_FALSE(steps[4].isWrite);
  EXPECT_TRUE(steps[5].isWrite);
  const std::uint64_t base = space.baseOf(rig.v);
  EXPECT_EQ(steps[5].dataAddr, base + 50 * 4);
}

TEST(ProcessTraceCursor, EmptyProcessIsDoneImmediately) {
  Rig rig;
  ProcessSpec p;
  p.name = "empty";
  const ProcessId id = rig.workload.graph.addProcess(std::move(p));
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  EXPECT_TRUE(cursor.done());
  TraceStep s;
  EXPECT_FALSE(cursor.next(s));
}

TEST(ProcessTraceCursor, CopyResumesMidStream) {
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 50);
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  TraceStep s;
  for (int i = 0; i < 20; ++i) cursor.next(s);
  // A copy must continue exactly where the original would.
  ProcessTraceCursor copy = cursor;
  TraceStep a;
  TraceStep b;
  while (true) {
    const bool moreA = cursor.next(a);
    const bool moreB = copy.next(b);
    ASSERT_EQ(moreA, moreB);
    if (!moreA) break;
    EXPECT_EQ(a.dataAddr, b.dataAddr);
    EXPECT_EQ(a.instrAddr, b.instrAddr);
  }
}

TEST(ProcessTraceCursor, LayoutTransformChangesAddresses) {
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 1024);
  AddressSpace plain(rig.workload.arrays);
  AddressSpace transformed(rig.workload.arrays);
  transformed.setTransform(rig.v, LayoutTransform::interleave(4096, 2048));

  ProcessTraceCursor c1(rig.workload.graph.process(id), rig.workload.arrays,
                        plain);
  ProcessTraceCursor c2(rig.workload.graph.process(id), rig.workload.arrays,
                        transformed);
  TraceStep s1;
  TraceStep s2;
  // Element k at byte 4k: transformed addresses stay in the upper half of
  // each page.
  while (c1.next(s1) && c2.next(s2)) {
    const std::uint64_t off2 = (s2.dataAddr - transformed.baseOf(rig.v)) % 4096;
    EXPECT_GE(off2, 2048u);
    EXPECT_NE(s1.dataAddr, s2.dataAddr);
  }
}

TEST(ProcessTraceCursor, InstructionAddressesCycleThroughBody) {
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 100);
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  std::set<std::uint64_t> instrAddrs;
  TraceStep s;
  while (cursor.next(s)) {
    instrAddrs.insert(s.instrAddr);
    EXPECT_GE(s.instrAddr, kCodeSegmentBase);
    EXPECT_LT(s.instrAddr, 0x1000'0000u);  // below the data segment
  }
  // Body of a 1-access nest: 64 bytes = 2 fetch lines.
  EXPECT_EQ(instrAddrs.size(), 2u);
}

TEST(ProcessTraceCursor, SameTaskSharesCodeDifferentTasksDoNot) {
  Rig rig;
  const ProcessId a = rig.addSimpleProcess(0, 10);
  const ProcessId b = rig.addSimpleProcess(10, 20);
  ProcessSpec other;
  other.name = "other-task";
  other.task = 7;
  other.nests.push_back(LoopNest{
      IterationSpace::box({{0, 10}}),
      {ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
      1});
  const ProcessId c = rig.workload.graph.addProcess(std::move(other));

  const AddressSpace space(rig.workload.arrays);
  const auto firstInstr = [&](ProcessId id) {
    ProcessTraceCursor cursor(rig.workload.graph.process(id),
                              rig.workload.arrays, space);
    TraceStep s;
    EXPECT_TRUE(cursor.next(s));
    return s.instrAddr;
  };
  EXPECT_EQ(firstInstr(a), firstInstr(b));  // same task, same stage
  EXPECT_NE(firstInstr(a), firstInstr(c));  // different task
}

TEST(ValidateWorkload, AcceptsWellFormed) {
  Rig rig;
  rig.addSimpleProcess(0, 100);
  EXPECT_NO_THROW(validateWorkload(rig.workload));
}

TEST(ValidateWorkload, RejectsOutOfBounds) {
  Rig rig;
  ProcessSpec p;
  p.name = "oob";
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 10}}),
      {ArrayAccess{rig.v, AffineMap{AffineExpr({1}, 4090)}, AccessKind::Read}},
      1});
  rig.workload.graph.addProcess(std::move(p));
  EXPECT_THROW(validateWorkload(rig.workload), Error);
}

TEST(ValidateWorkload, RejectsUnknownArray) {
  Rig rig;
  ProcessSpec p;
  p.name = "bad-array";
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 10}}),
      {ArrayAccess{99, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
      1});
  rig.workload.graph.addProcess(std::move(p));
  EXPECT_THROW(validateWorkload(rig.workload), Error);
}

TEST(ValidateWorkload, RejectsCycle) {
  Rig rig;
  const ProcessId a = rig.addSimpleProcess(0, 10);
  const ProcessId b = rig.addSimpleProcess(10, 20);
  rig.workload.graph.addDependence(a, b);
  rig.workload.graph.addDependence(b, a);
  EXPECT_THROW(validateWorkload(rig.workload), Error);
}

TEST(ValidateWorkload, RejectsMoreNestsThanCodeBodySlots) {
  // Nest n of task t fetches from slot 16t + n: a 17th nest would run
  // the code of task t + 1.
  Rig rig;
  ProcessSpec p;
  p.name = "many-nests";
  for (std::size_t n = 0; n < kMaxNestsPerProcess; ++n) {
    p.nests.push_back(LoopNest{IterationSpace::box({{0, 2}}), {}, 1});
  }
  const ProcessSpec atLimit = p;
  rig.workload.graph.addProcess(ProcessSpec(atLimit));
  EXPECT_NO_THROW(validateWorkload(rig.workload));

  p.nests.push_back(LoopNest{IterationSpace::box({{0, 2}}), {}, 1});
  const ProcessId over = rig.workload.graph.addProcess(std::move(p));
  EXPECT_THROW(validateWorkload(rig.workload), Error);
  const AddressSpace space(rig.workload.arrays);
  EXPECT_THROW(ProcessTraceCursor(rig.workload.graph.process(over),
                                  rig.workload.arrays, space),
               Error);
}

/// A mixed-shape process for the run-length equivalence tests: strided
/// reads, a multi-access nest with a loop-invariant stream and a write,
/// a reversed sweep and a pure-compute nest.
ProcessSpec mixedSpec(ArrayId v) {
  ProcessSpec p;
  p.name = "mixed";
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 37}}),
      {ArrayAccess{v, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
      1});
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 5}, {0, 21}}),
      {ArrayAccess{v, AffineMap{AffineExpr({21, 1}, 100)}, AccessKind::Read},
       ArrayAccess{v, AffineMap{AffineExpr({1, 0}, 300)}, AccessKind::Read},
       ArrayAccess{v, AffineMap{AffineExpr({21, 1}, 400)}, AccessKind::Write}},
      3});
  p.nests.push_back(LoopNest{
      IterationSpace::box({{0, 30}}),
      {ArrayAccess{v, AffineMap{AffineExpr({-1}, 629)}, AccessKind::Write}},
      2});
  p.nests.push_back(LoopNest{IterationSpace::box({{0, 17}}), {}, 5});
  return p;
}

/// Expands a TraceRun into the TraceSteps it encodes, from the given
/// in-run position, mirroring the documented step semantics.
std::vector<TraceStep> expandRun(const TraceRun& run, std::int64_t fromStep,
                                 std::int64_t count) {
  std::vector<TraceStep> steps;
  const std::int64_t perIter = run.stepsPerIteration();
  for (std::int64_t s = fromStep; s < fromStep + count; ++s) {
    TraceStep step;
    step.instrAddr =
        run.bodyBase +
        (run.bodyCursor + static_cast<std::uint64_t>(s) * kInstrFetchBytes) %
            static_cast<std::uint64_t>(run.bodyBytes);
    const std::int64_t iter = s / perIter;
    const std::int64_t j = s % perIter;
    if (run.streams.empty()) {
      step.isRef = false;
      step.computeCycles = run.computeCyclesPerIter;
    } else {
      const RunStream& stream = run.streams[static_cast<std::size_t>(j)];
      step.isRef = true;
      step.isWrite = stream.isWrite;
      step.dataAddr = stream.baseAddr +
                      static_cast<std::uint64_t>(stream.strideBytes * iter);
      step.computeCycles =
          j == perIter - 1 ? run.computeCyclesPerIter : 0;
    }
    steps.push_back(step);
  }
  return steps;
}

/// Drains \p cursor through peekRun/consume in seeded random bites —
/// whole runs, arbitrary prefixes and one-to-three-step nibbles that
/// leave it mid-iteration — and returns the steps the runs encode.
std::vector<TraceStep> drainRuns(ProcessTraceCursor& cursor, Rng& rng) {
  std::vector<TraceStep> got;
  TraceRun run;
  while (cursor.peekRun(run)) {
    EXPECT_GE(run.iterations, 1);
    const std::int64_t steps = run.steps();
    std::int64_t take = steps;
    switch (rng.below(3)) {
      case 0: take = rng.range(1, steps); break;
      case 1: take = rng.range(1, std::min<std::int64_t>(steps, 3)); break;
      default: break;
    }
    const auto part = expandRun(run, 0, take);
    got.insert(got.end(), part.begin(), part.end());
    cursor.consume(take);
  }
  return got;
}

/// The data side of \p spec's trace straight from the definitions —
/// lexicographic loop points, linearized accesses and
/// AddressSpace::elementAddress — independent of the cursor's plans.
std::vector<TraceStep> referenceDataSteps(const ProcessSpec& spec,
                                          const ArrayTable& arrays,
                                          const AddressSpace& space) {
  std::vector<TraceStep> steps;
  for (const LoopNest& nest : spec.nests) {
    std::vector<AffineExpr> linear;
    for (const ArrayAccess& access : nest.accesses) {
      linear.push_back(linearizeAccess(access, arrays.at(access.array)));
    }
    nest.space.forEachPoint([&](std::span<const std::int64_t> point) {
      if (nest.accesses.empty()) steps.push_back(TraceStep{});
      for (std::size_t a = 0; a < nest.accesses.size(); ++a) {
        TraceStep step;
        step.isRef = true;
        step.isWrite = nest.accesses[a].kind == AccessKind::Write;
        step.dataAddr = space.elementAddress(nest.accesses[a].array,
                                             linear[a].eval(point));
        steps.push_back(step);
      }
    });
  }
  return steps;
}

/// Asserts that next() emits the data references the definitions give,
/// and that runs drained in random bites reproduce next() step for step,
/// for every process of \p workload under \p space.
void expectRunsMatchNext(const Workload& workload, const AddressSpace& space,
                         std::uint64_t seed) {
  Rng rng(seed);
  for (const ProcessSpec& spec : workload.graph.processes()) {
    ProcessTraceCursor reference(spec, workload.arrays, space);
    const auto expected = drain(reference);
    const auto defined = referenceDataSteps(spec, workload.arrays, space);
    ASSERT_EQ(expected.size(), defined.size()) << spec.name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i].isRef, defined[i].isRef) << spec.name << " " << i;
      ASSERT_EQ(expected[i].isWrite, defined[i].isWrite) << spec.name << " " << i;
      ASSERT_EQ(expected[i].dataAddr, defined[i].dataAddr) << spec.name << " " << i;
    }
    ProcessTraceCursor cursor(spec, workload.arrays, space);
    const auto got = drainRuns(cursor, rng);
    ASSERT_EQ(got.size(), expected.size()) << spec.name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].instrAddr, expected[i].instrAddr) << spec.name << " " << i;
      ASSERT_EQ(got[i].dataAddr, expected[i].dataAddr) << spec.name << " " << i;
      ASSERT_EQ(got[i].computeCycles, expected[i].computeCycles)
          << spec.name << " " << i;
      ASSERT_EQ(got[i].isRef, expected[i].isRef) << spec.name << " " << i;
      ASSERT_EQ(got[i].isWrite, expected[i].isWrite) << spec.name << " " << i;
    }
    EXPECT_TRUE(cursor.done()) << spec.name;
    EXPECT_EQ(cursor.stepsEmitted(), expected.size()) << spec.name;
  }
}

TEST(ProcessTraceCursor, RunsEncodeTheExactStepSequence) {
  // Consuming runs in random-sized bites must visit precisely the steps
  // next() emits, and leave the cursor in the same state.
  Rig rig;
  rig.workload.graph.addProcess(mixedSpec(rig.v));
  const AddressSpace space(rig.workload.arrays);
  for (const std::uint64_t seed : {11ULL, 222ULL, 3333ULL}) {
    expectRunsMatchNext(rig.workload, space, seed);
  }
}

TEST(ProcessTraceCursor, PartialIterationRunResumesTheTail) {
  Rig rig;
  const ProcessId id = rig.workload.graph.addProcess(mixedSpec(rig.v));
  const AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  TraceRun run;
  ASSERT_TRUE(cursor.peekRun(run));
  cursor.consume(run.steps());  // past the first single-access nest
  ASSERT_TRUE(cursor.peekRun(run));
  ASSERT_EQ(run.streams.size(), 3u);
  cursor.consume(run.stepsPerIteration() + 1);  // one iteration + one step
  ASSERT_TRUE(cursor.peekRun(run));
  EXPECT_TRUE(run.partialIteration);
  EXPECT_EQ(run.iterations, 1);
  ASSERT_EQ(run.streams.size(), 2u);  // the two remaining accesses
  cursor.consume(run.steps());
  ASSERT_TRUE(cursor.peekRun(run));
  EXPECT_FALSE(run.partialIteration);  // realigned to iteration boundaries
}

TEST(ProcessTraceCursor, RunsClipAtInterleaveChunkBoundaries) {
  // With a transformed array the affine stride only holds inside one
  // half-page chunk; runs must clip there and every encoded address must
  // still match the per-event trace.
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 2000);
  AddressSpace space(rig.workload.arrays);
  space.setTransform(rig.v, LayoutTransform::interleave(4096, 0));
  ProcessTraceCursor reference(rig.workload.graph.process(id),
                               rig.workload.arrays, space);
  const auto expected = drain(reference);

  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  std::vector<TraceStep> got;
  TraceRun run;
  std::size_t runs = 0;
  while (cursor.peekRun(run)) {
    ++runs;
    // 2048-byte chunks over 4-byte elements: at most 512 iterations.
    EXPECT_LE(run.iterations, 512);
    const auto steps = expandRun(run, 0, run.steps());
    got.insert(got.end(), steps.begin(), steps.end());
    cursor.consume(run.steps());
  }
  EXPECT_GE(runs, 4u);  // 2000 elements / 512 per chunk
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dataAddr, expected[i].dataAddr) << i;
  }
}

TEST(ProcessTraceCursor, RunsMatchNextUnderLsmLayout) {
  // The paper's Fig. 7 mix at |T| = 48, laid out as runExperiment lays
  // it out for LSM: the compiled address plans must describe exactly
  // the per-event trace of every process, transformed arrays included.
  const Workload mix = concurrentScenario(standardSuite(), 48);
  const std::vector<Footprint> footprints = mix.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(footprints);
  const ExperimentConfig config;
  AddressSpace space(mix.arrays, config.addressSpace);
  applyLsmRelayout(mix, footprints, sharing, config, space);

  // Real interleave transforms in both phases.
  bool phaseLow = false;
  bool phaseHigh = false;
  for (ArrayId a = 0; a < space.arrayCount(); ++a) {
    const LayoutTransform& t = space.transformOf(a);
    if (t.isIdentity()) continue;
    phaseLow |= t.phase() == 0;
    phaseHigh |= t.phase() == t.pageBytes() / 2;
  }
  ASSERT_TRUE(phaseLow);
  ASSERT_TRUE(phaseHigh);

  expectRunsMatchNext(mix, space, 48);
}

TEST(ProcessTraceCursor, RunsMatchNextOnEdgeShapes) {
  // Rank-0 nests (one iteration, constant addresses), pure-compute nests
  // of rank 0 and with a non-unit step, and non-unit steps on data
  // nests, over interleaved arrays in both phases and an identity one.
  Workload workload;
  const ArrayId a = workload.arrays.add("A", {64, 64}, 4);
  const ArrayId b = workload.arrays.add("B", {4096}, 8);
  const ArrayId c = workload.arrays.add("C", {512}, 2);
  ProcessSpec p;
  p.name = "edges";
  p.nests.push_back(LoopNest{
      IterationSpace(),
      {ArrayAccess{a, AffineMap{AffineExpr::constant(3), AffineExpr::constant(5)},
                   AccessKind::Read},
       ArrayAccess{b, AffineMap{AffineExpr::constant(77)}, AccessKind::Write}},
      4});
  p.nests.push_back(LoopNest{IterationSpace(), {}, 9});
  p.nests.push_back(LoopNest{
      IterationSpace({LoopDim{1, 60, 3}, LoopDim{2, 63, 5}}),
      {ArrayAccess{a, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)},
                   AccessKind::Read},
       ArrayAccess{b, AffineMap{AffineExpr({64, -1}, 100)}, AccessKind::Write},
       ArrayAccess{c, AffineMap{AffineExpr({0, 7}, 1)}, AccessKind::Read}},
      2});
  p.nests.push_back(LoopNest{IterationSpace({LoopDim{0, 50, 7}}), {}, 3});
  p.nests.push_back(LoopNest{
      IterationSpace({LoopDim{5, 4000, 13}}),
      {ArrayAccess{b, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
      1});
  workload.graph.addProcess(std::move(p));
  ASSERT_NO_THROW(validateWorkload(workload));

  AddressSpace space(workload.arrays);
  space.setTransform(a, LayoutTransform::interleave(4096, 0));
  space.setTransform(b, LayoutTransform::interleave(4096, 2048));
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    expectRunsMatchNext(workload, space, seed);
  }
}

TEST(ProcessTraceCursor, AuditFiresOnLayoutChangedAfterConstruction) {
  // The cursor compiles its address plans at construction; a transform
  // installed afterwards would replay a stale layout.
  Rig rig;
  const ProcessId id = rig.addSimpleProcess(0, 100);
  AddressSpace space(rig.workload.arrays);
  ProcessTraceCursor cursor(rig.workload.graph.process(id),
                            rig.workload.arrays, space);
  EXPECT_NO_THROW(cursor.auditLayoutUnchanged());
  const std::uint64_t before = space.generation();
  space.setTransform(rig.v, LayoutTransform::interleave(4096, 0));
  EXPECT_EQ(space.generation(), before + 1);
  EXPECT_THROW(cursor.auditLayoutUnchanged(), AuditError);
  if (audit::enabled()) {
    TraceRun run;
    EXPECT_THROW((void)cursor.peekRun(run), AuditError);
    TraceStep step;
    EXPECT_THROW((void)cursor.next(step), AuditError);
  }
  // A cursor built after the change is current again.
  ProcessTraceCursor fresh(rig.workload.graph.process(id),
                           rig.workload.arrays, space);
  EXPECT_NO_THROW(fresh.auditLayoutUnchanged());
}

}  // namespace
}  // namespace laps
