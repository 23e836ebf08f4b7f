/// \file replay_test.cpp
/// \brief Segment-level differential: the engine's run-length replay
/// (sim/replay.h) against the per-event oracle (per_event_replay.h).
///
/// A seeded driver owns two independent memory platforms — one
/// MemoryHierarchy with one MemorySystem per core each — and plays the
/// engine's part: it picks the earliest-free core, raises both
/// hierarchies' retire horizons to that cycle, picks a random unfinished
/// process (so half-finished processes migrate between cores), flushes
/// on a switch when asked to, draws a quantum (or runs the segment to
/// completion) and hands each replay its own copy of the process's
/// cursor. After every segment the two sides must agree on the segment's
/// cycles, the cursor position, every L1 I/D counter and LRU clock, the
/// 3C breakdown, the resident L1 lines with each set's LRU order and the
/// dirty bits, and every shared-level counter
/// (L2, bank waits, bus, NoC links, directory). Platforms: flat, bus +
/// banked L2 and a timed directory mesh; workloads: the stress shapes
/// below and the paper's standard suite under its LSM (interleaved)
/// layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "layout/transform.h"
#include "per_event_replay.h"
#include "sim/replay.h"
#include "trace/cursor.h"
#include "util/rng.h"

namespace laps {
namespace {

enum class Shape { Flat, BusL2, TimedMesh };

const char* shapeName(Shape shape) {
  switch (shape) {
    case Shape::Flat: return "flat";
    case Shape::BusL2: return "bus+L2";
    case Shape::TimedMesh: return "timed mesh";
  }
  return "?";
}

/// The simulated platform of one differential run.
struct Platform {
  std::size_t cores = 2;
  MemoryConfig memory{};
  PlatformConfig shared{};
};

/// Small L1s (1 KB, 2-way) with instruction modelling and 3C
/// classification: conflicts, evictions and cold fetches everywhere.
MemoryConfig stressMemory() {
  MemoryConfig memory;
  memory.l1d = CacheConfig{1024, 2, 32, 2};
  memory.l1i = CacheConfig{1024, 2, 32, 2};
  memory.modelICache = true;
  memory.classifyMisses = true;
  return memory;
}

/// \p shape's shared levels under \p memory. The L2 holds four L1 data
/// caches (4 KB over the stress L1s), so inclusion recalls are frequent.
Platform platformOf(Shape shape, MemoryConfig memory, std::size_t cores) {
  Platform p;
  p.cores = cores;
  p.memory = memory;
  if (shape == Shape::Flat) return p;
  SharedL2Config& l2 = p.shared.sharedL2.emplace();
  l2.sizeBytes = 4 * memory.l1d.sizeBytes;
  l2.assoc = 2;
  l2.lineBytes = memory.l1d.lineBytes;
  l2.bankCount = 4;
  if (shape == Shape::BusL2) {
    p.shared.interconnect = InterconnectKind::Bus;
    p.shared.bus.maxOutstanding = 2;
  } else {
    p.shared.interconnect = InterconnectKind::Mesh;
    p.shared.coherence = CoherenceKind::Directory;
    p.shared.noc.hopCycles = 2;
    p.shared.noc.linkWidthBytes = 8;  // 4 cycles per 32 B line
  }
  p.shared.validate(cores);
  return p;
}

/// One side of the differential: a hierarchy and its cores' L1s.
struct Side {
  std::shared_ptr<MemoryHierarchy> hierarchy;
  std::vector<std::unique_ptr<MemorySystem>> cores;

  explicit Side(const Platform& p)
      : hierarchy(std::make_shared<MemoryHierarchy>(
            p.memory.memLatencyCycles, p.shared, p.cores,
            p.memory.l1d.lineBytes)) {
    for (std::size_t c = 0; c < p.cores; ++c) {
      cores.push_back(std::make_unique<MemorySystem>(p.memory, hierarchy, c));
    }
  }
};

/// One observable counter of a Side (core kShared = the shared levels).
struct Observed {
  const char* level;
  const char* field;
  std::size_t core;
  std::uint64_t value;
};
constexpr std::size_t kShared = ~std::size_t{0};

void observeStats(std::vector<Observed>& out, const char* level,
                  std::size_t core, const CacheStats& s) {
  out.push_back({level, "accesses", core, s.accesses});
  out.push_back({level, "hits", core, s.hits});
  out.push_back({level, "misses", core, s.misses});
  out.push_back({level, "evictions", core, s.evictions});
  out.push_back({level, "dirtyEvictions", core, s.dirtyEvictions});
  out.push_back({level, "invalidations", core, s.invalidations});
}

std::vector<Observed> observe(const Side& side) {
  std::vector<Observed> out;
  for (std::size_t c = 0; c < side.cores.size(); ++c) {
    const MemorySystem& m = *side.cores[c];
    observeStats(out, "l1d", c, m.dcache().stats());
    observeStats(out, "l1i", c, m.icache().stats());
    out.push_back({"l1d", "clock", c, m.dataClock()});
    out.push_back({"l1i", "clock", c, m.instrClock()});
    const MissBreakdown misses = m.dataMissBreakdown();
    out.push_back({"3C", "compulsory", c, misses.compulsory});
    out.push_back({"3C", "capacity", c, misses.capacity});
    out.push_back({"3C", "conflict", c, misses.conflict});
  }
  const MemoryHierarchy& h = *side.hierarchy;
  if (const SharedL2* l2 = h.l2()) {
    observeStats(out, "l2", kShared, l2->stats());
    out.push_back({"l2", "bankWaitCycles", kShared, l2->bankWaitCycles()});
  }
  if (const MemoryBus* bus = h.bus()) {
    out.push_back({"bus", "transactions", kShared, bus->stats().transactions});
    out.push_back({"bus", "waitCycles", kShared, bus->stats().waitCycles});
  }
  if (const NocFabric* noc = h.noc()) {
    const NocStats& s = noc->stats();
    out.push_back({"noc", "transfers", kShared, s.transfers});
    out.push_back({"noc", "postedTransfers", kShared, s.postedTransfers});
    out.push_back({"noc", "hopCycles", kShared, s.hopCycles});
    out.push_back({"noc", "linkWaitCycles", kShared, s.linkWaitCycles});
  }
  if (const DirectoryStats* dir = h.directory()) {
    out.push_back({"dir", "invalidationsSent", kShared, dir->invalidationsSent});
    out.push_back(
        {"dir", "invalidationsFiltered", kShared, dir->invalidationsFiltered});
  }
  out.push_back(
      {"mem", "inclusionWritebacks", kShared, h.inclusionWritebacks()});
  return out;
}

/// \p cache's resident lines as (address, recency rank, dirty): the
/// rank counts the lines of the same set with an older LRU stamp. The
/// run-length replay keeps stamps exact only up to their order within a
/// set (a whole-iteration bulk commit advances the clock alone), and
/// that order is all a replacement decision reads.
std::vector<std::tuple<std::uint64_t, std::size_t, bool>> recencyOrder(
    const SetAssocCache& cache) {
  const std::vector<SetAssocCache::ResidentLine> lines =
      cache.residentLineStates();
  std::vector<std::tuple<std::uint64_t, std::size_t, bool>> order;
  // The lines come set-major: each set's lines are one contiguous group.
  for (std::size_t first = 0, last = 0; first < lines.size(); first = last) {
    const std::uint64_t set = cache.setIndexOf(lines[first].addr);
    while (last < lines.size() && cache.setIndexOf(lines[last].addr) == set) {
      ++last;
    }
    for (std::size_t i = first; i < last; ++i) {
      std::size_t rank = 0;
      for (std::size_t k = first; k < last; ++k) {
        rank += lines[k].lastUse < lines[i].lastUse ? 1 : 0;
      }
      order.emplace_back(lines[i].addr, rank, lines[i].dirty);
    }
  }
  return order;
}

::testing::AssertionResult sameState(const Side& perEvent,
                                     const Side& runLength) {
  const std::vector<Observed> want = observe(perEvent);
  const std::vector<Observed> got = observe(runLength);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].value != got[i].value) {
      auto failure = ::testing::AssertionFailure();
      failure << want[i].level << '.' << want[i].field;
      if (want[i].core != kShared) failure << " of core " << want[i].core;
      return failure << ": per-event " << want[i].value << ", run-length "
                     << got[i].value;
    }
  }
  for (std::size_t c = 0; c < perEvent.cores.size(); ++c) {
    const MemorySystem& a = *perEvent.cores[c];
    const MemorySystem& b = *runLength.cores[c];
    if (recencyOrder(a.dcache()) != recencyOrder(b.dcache())) {
      return ::testing::AssertionFailure()
             << "resident L1 data lines, their LRU order or dirty bits "
                "differ on core "
             << c;
    }
    if (recencyOrder(a.icache()) != recencyOrder(b.icache())) {
      return ::testing::AssertionFailure()
             << "resident L1 instruction lines or their LRU order differ on "
                "core "
             << c;
    }
  }
  return ::testing::AssertionSuccess();
}

struct DriveOptions {
  std::uint64_t seed = 1;
  /// Quantum bounds of a preemptive segment (inclusive, drawn uniformly).
  /// Unset: every segment runs to completion.
  std::optional<std::pair<std::int64_t, std::int64_t>> quanta{{7, 2040}};
  /// With quanta, one segment in this many still runs to completion
  /// (0 = none). A whole-process segment sweeps the classifier's shadow
  /// LRU, which can erase an earlier divergence of its order before it
  /// shows in the 3C counts, so some drives keep every segment cut.
  std::uint64_t runToCompletionOneIn = 8;
  bool flushOnSwitch = false;
};

/// Context-switch overhead before a segment of another process (the
/// engine's default): shifts the issue cycles of contended misses.
constexpr std::int64_t kSwitchCycles = 400;

/// What a drive exercised, for the coverage assertions.
struct Coverage {
  std::size_t segments = 0;
  std::size_t nonPreemptive = 0;     ///< segments without a quantum
  std::size_t midIterationCuts = 0;  ///< quantum cuts inside an iteration
  std::size_t migrations = 0;        ///< resumes on another core
  std::size_t flushes = 0;
  /// Run-length side: chunks committed around a line-jumping stream, and
  /// those a jumper miss sent back to per-event replay.
  std::uint64_t jumperChunks = 0;
  std::uint64_t jumperFallbacks = 0;
};

/// Replays every process of \p workload under \p space to completion,
/// segment by segment, on both sides of the differential (see the file
/// comment). Fatal failure at the first divergence.
void drive(const Workload& workload, const AddressSpace& space,
           const Platform& platform, const DriveOptions& options,
           Coverage& coverage) {
  Side perEvent(platform);
  Side runLength(platform);
  const std::size_t n = workload.graph.processCount();
  std::vector<ProcessTraceCursor> cursors;
  for (ProcessId p = 0; p < n; ++p) {
    cursors.emplace_back(workload.graph.process(p), workload.arrays, space);
  }
  std::vector<ProcessId> live;
  for (ProcessId p = 0; p < n; ++p) {
    if (!cursors[p].done()) live.push_back(p);
  }
  std::vector<std::optional<std::size_t>> lastCore(n);
  std::vector<std::optional<ProcessId>> lastOnCore(platform.cores);
  std::vector<std::int64_t> freeAt(platform.cores, 0);
  Rng rng(options.seed);

  while (!live.empty()) {
    // The earliest-free core: segment starts are non-decreasing, as the
    // engine's event queue makes them.
    const auto core = static_cast<std::size_t>(
        std::min_element(freeAt.begin(), freeAt.end()) - freeAt.begin());
    const std::int64_t now = freeAt[core];
    perEvent.hierarchy->retireBefore(now);
    runLength.hierarchy->retireBefore(now);

    const std::size_t slot = rng.below(live.size());
    const ProcessId process = live[slot];
    const bool isSwitch = lastOnCore[core] != std::optional{process};
    if (isSwitch && options.flushOnSwitch) {
      perEvent.cores[core]->flushAll();
      runLength.cores[core]->flushAll();
      ++coverage.flushes;
    }
    if (lastCore[process] && *lastCore[process] != core) {
      ++coverage.migrations;
    }
    std::optional<std::int64_t> quantum;
    if (options.quanta && (options.runToCompletionOneIn == 0 ||
                           rng.below(options.runToCompletionOneIn) != 0)) {
      quantum = rng.range(options.quanta->first, options.quanta->second);
    } else {
      ++coverage.nonPreemptive;
    }
    const std::int64_t segStart = now + (isSwitch ? kSwitchCycles : 0);

    ProcessTraceCursor oracle = cursors[process];
    ProcessTraceCursor replay = cursors[process];
    const std::int64_t want = replaySegmentPerEvent(
        oracle, *perEvent.cores[core], quantum, segStart);
    const std::int64_t got = replaySegmentRunLength(
        replay, *runLength.cores[core], quantum, segStart);
    const auto where = [&] {
      return "segment " + std::to_string(coverage.segments) + ": process " +
             std::to_string(process) + " on core " + std::to_string(core) +
             " at cycle " + std::to_string(segStart) + ", quantum " +
             (quantum ? std::to_string(*quantum) : std::string("none"));
    };
    ASSERT_EQ(want, got) << where();
    ASSERT_EQ(oracle.stepsEmitted(), replay.stepsEmitted()) << where();
    ASSERT_EQ(oracle.done(), replay.done()) << where();
    ASSERT_TRUE(sameState(perEvent, runLength)) << where();

    ++coverage.segments;
    cursors[process] = replay;
    lastCore[process] = core;
    lastOnCore[core] = process;
    freeAt[core] = segStart + got;
    if (replay.done()) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
    } else if (TraceRun run; replay.peekRun(run) && run.partialIteration) {
      ++coverage.midIterationCuts;
    }
  }
  for (const auto& core : runLength.cores) {
    const ReplayPathStats paths = core->replayPathStats();
    coverage.jumperChunks += paths.jumperChunks;
    coverage.jumperFallbacks += paths.jumperFallbacks;
  }
}

/// A stress workload exercising every run shape: single-stream sweeps,
/// multi-access iterations (read + write + loop-invariant scalar),
/// transposed (line-jumping) strides, reversed (negative-stride) sweeps,
/// pure-compute nests and multiple nests per process.
struct StressRig {
  Workload workload;
  ArrayId a, b, c, d;

  StressRig() {
    a = workload.arrays.add("A", {64, 64}, 4);
    b = workload.arrays.add("B", {64, 64}, 4);
    c = workload.arrays.add("C", {256}, 4);
    d = workload.arrays.add("D", {64, 64}, 4);
  }

  /// Rows [lo, hi) of one two-deep nest (i, j), j innermost over 64.
  ProcessId addNest(const char* name, std::int64_t lo, std::int64_t hi,
                    std::vector<ArrayAccess> accesses) {
    ProcessSpec p;
    p.name = name;
    p.nests.push_back(LoopNest{IterationSpace::box({{lo, hi}, {0, 64}}),
                               std::move(accesses), 1});
    return workload.graph.addProcess(std::move(p));
  }

  static ArrayAccess rowMajor(ArrayId array, AccessKind kind) {
    return ArrayAccess{
        array, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)}, kind};
  }
  static ArrayAccess transposed(ArrayId array) {
    return ArrayAccess{
        array, AffineMap{AffineExpr({0, 1}, 0), AffineExpr({1, 0}, 0)},
        AccessKind::Read};
  }

  /// B[i][j] = A[i][j] + D[j][i]: row-major read and write co-streams
  /// around a transposed (256-byte jumper) read of a third array. Every
  /// array spans many 512-byte cache pages of the 2-way stress L1, so
  /// jumper fills land in the co-streams' sets.
  ProcessId addTransposeMix(std::int64_t lo, std::int64_t hi) {
    return addNest("transpose-mix", lo, hi,
                   {rowMajor(a, AccessKind::Read), transposed(d),
                    rowMajor(b, AccessKind::Write)});
  }

  /// C[i] = sum over j of A[j][i]: the jumper's only co-stream is
  /// loop-invariant (stride 0), so a chunk spans the whole 64-iteration
  /// run but for the shadow-capacity cap (32 - K lines of jumper fills).
  ProcessId addColumnSum(std::int64_t lo, std::int64_t hi) {
    return addNest("column-sum", lo, hi,
                   {transposed(a),
                    ArrayAccess{c, AffineMap{AffineExpr({1, 0}, 0)},
                                AccessKind::Write}});
  }

  /// C[i] += A[j][i] * A[63 - j][i]: two jumpers, one forward and one
  /// backward, around the stride-0 co-stream. The backward one reaches
  /// the forward one's oldest lines just as they leave the shadow LRU,
  /// so a co-stream line pushed out of it by jumper fills would change
  /// the 3C class of those misses.
  ProcessId addColumnFold(std::int64_t lo, std::int64_t hi) {
    return addNest(
        "column-fold", lo, hi,
        {transposed(a),
         ArrayAccess{a,
                     AffineMap{AffineExpr({0, -1}, 63), AffineExpr({1, 0}, 0)},
                     AccessKind::Read},
         ArrayAccess{c, AffineMap{AffineExpr({1, 0}, 0)}, AccessKind::Write}});
  }

  /// A[i][j] += A[j][i]: near the diagonal the jumper reads the very
  /// line the two co-streams (read and write of A[i][j]) are in.
  ProcessId addSymmetrize(std::int64_t lo, std::int64_t hi) {
    return addNest("symmetrize", lo, hi,
                   {rowMajor(a, AccessKind::Read), transposed(a),
                    rowMajor(a, AccessKind::Write)});
  }

  ProcessId addStream(std::int64_t lo, std::int64_t hi) {
    ProcessSpec p;
    p.name = "stream";
    p.nests.push_back(LoopNest{
        IterationSpace::box({{lo, hi}}),
        {ArrayAccess{c, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        1});
    return workload.graph.addProcess(std::move(p));
  }

  ProcessId addMulAdd(std::int64_t rowLo, std::int64_t rowHi) {
    ProcessSpec p;
    p.name = "muladd";
    // (i, j): B[i][j] += A[i][j] * C[i]  — stride-4 read, stride-4 write,
    // loop-invariant (stride-0) read.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{rowLo, rowHi}, {0, 64}}),
        {ArrayAccess{a, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)},
                     AccessKind::Read},
         ArrayAccess{c, AffineMap{AffineExpr({1, 0}, 0)}, AccessKind::Read},
         ArrayAccess{b, AffineMap{AffineExpr({1, 0}, 0), AffineExpr({0, 1}, 0)},
                     AccessKind::Write}},
        2});
    // Transposed sweep: A[j][i] — 256-byte stride jumps a line every step.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{rowLo, rowHi}, {0, 64}}),
        {ArrayAccess{a, AffineMap{AffineExpr({0, 1}, 0), AffineExpr({1, 0}, 0)},
                     AccessKind::Read}},
        1});
    // Pure compute.
    p.nests.push_back(LoopNest{IterationSpace::box({{0, 500}}), {}, 3});
    return workload.graph.addProcess(std::move(p));
  }

  ProcessId addReversed() {
    ProcessSpec p;
    p.name = "reversed";
    // C[255 - i]: negative stride.
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, 256}}),
        {ArrayAccess{c, AffineMap{AffineExpr({-1}, 255)}, AccessKind::Write}},
        1});
    return workload.graph.addProcess(std::move(p));
  }

  /// The standard mix: one of each shape, two muladds on overlapping
  /// rows (cross-process reuse). Short processes keep run-to-completion
  /// segments short: a contended one books calendar slots far past the
  /// retire horizon, and the audit build checks the whole calendar on
  /// every booking.
  StressRig& standardMix() {
    addStream(0, 200);
    addMulAdd(0, 8);
    addMulAdd(4, 12);
    addReversed();
    return *this;
  }
};

constexpr Shape kShapes[] = {Shape::Flat, Shape::BusL2, Shape::TimedMesh};

/// Cores per stress platform: two share a bus, a 2×2 mesh has four.
std::size_t stressCores(Shape shape) {
  return shape == Shape::TimedMesh ? 4 : 2;
}

TEST(SegmentReplay, StressShapesPreemptive) {
  for (const Shape shape : kShapes) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::string(shapeName(shape)) + ", seed " +
                   std::to_string(seed));
      StressRig rig;
      rig.standardMix();
      const AddressSpace space(rig.workload.arrays);
      DriveOptions options;
      options.seed = seed;
      options.runToCompletionOneIn = seed % 2 == 0 ? 8 : 0;
      Coverage coverage;
      ASSERT_NO_FATAL_FAILURE(drive(
          rig.workload, space,
          platformOf(shape, stressMemory(), stressCores(shape)), options,
          coverage));
      EXPECT_GT(coverage.midIterationCuts, 0u);
      EXPECT_GT(coverage.migrations, 0u);
      EXPECT_EQ(coverage.nonPreemptive > 0, seed % 2 == 0);
    }
  }
}

TEST(SegmentReplay, StressShapesNonPreemptive) {
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(shapeName(shape));
    StressRig rig;
    rig.standardMix();
    rig.addMulAdd(8, 16);
    const AddressSpace space(rig.workload.arrays);
    DriveOptions options;
    options.quanta.reset();
    Coverage coverage;
    ASSERT_NO_FATAL_FAILURE(drive(
        rig.workload, space,
        platformOf(shape, stressMemory(), stressCores(shape)), options,
        coverage));
    EXPECT_EQ(coverage.segments, rig.workload.graph.processCount());
  }
}

TEST(SegmentReplay, QuantumScanOnOneCore) {
  // A quantum that splits a bulk chunk mid-iteration must leave the
  // classifier's shadow LRU in the exact per-event rotation, or later
  // capacity-vs-conflict decisions diverge once interleaved processes
  // partially evict the shadow's MRU block. Scan a quantum range dense
  // enough to hit many split phases.
  for (std::int64_t quantum = 20; quantum <= 2040; quantum += 101) {
    SCOPED_TRACE(quantum);
    StressRig rig;
    rig.addMulAdd(0, 16);
    rig.addMulAdd(8, 24);
    rig.addMulAdd(16, 32);
    const AddressSpace space(rig.workload.arrays);
    DriveOptions options;
    options.quanta = {{quantum, quantum}};
    options.runToCompletionOneIn = 0;
    Coverage coverage;
    ASSERT_NO_FATAL_FAILURE(
        drive(rig.workload, space, platformOf(Shape::Flat, stressMemory(), 1),
              options, coverage));
  }
}

TEST(SegmentReplay, FlushOnSwitch) {
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(shapeName(shape));
    StressRig rig;
    rig.standardMix();
    const AddressSpace space(rig.workload.arrays);
    DriveOptions options;
    options.flushOnSwitch = true;
    Coverage coverage;
    ASSERT_NO_FATAL_FAILURE(drive(
        rig.workload, space,
        platformOf(shape, stressMemory(), stressCores(shape)), options,
        coverage));
    EXPECT_GT(coverage.flushes, 0u);
  }
}

TEST(SegmentReplay, InterleavedLayout) {
  // A re-laid-out array's addressing is only piecewise affine; runs must
  // be clipped at the half-page chunk boundaries the transform introduces.
  for (const Shape shape : kShapes) {
    SCOPED_TRACE(shapeName(shape));
    StressRig rig;
    rig.standardMix();
    AddressSpace space(rig.workload.arrays);
    const std::int64_t page = stressMemory().l1d.cachePageBytes();
    space.setTransform(rig.c, LayoutTransform::interleave(page, 0));
    space.setTransform(rig.a, LayoutTransform::interleave(page, page / 2));
    Coverage coverage;
    ASSERT_NO_FATAL_FAILURE(drive(
        rig.workload, space,
        platformOf(shape, stressMemory(), stressCores(shape)), DriveOptions{},
        coverage));
    EXPECT_GT(coverage.midIterationCuts, 0u);
  }
}

/// Drives \p rig on every platform shape, once with quanta (every
/// segment cut) and once run to completion, and the run to completion
/// once more without the miss classifier (no shadow LRU, so no
/// shadow-capacity cap on the chunks); returns the summed coverage.
Coverage driveJumperRig(const StressRig& rig) {
  Coverage total;
  const AddressSpace space(rig.workload.arrays);
  for (const Shape shape : kShapes) {
    for (const int mode : {0, 1, 2}) {
      const bool preemptive = mode == 0;
      MemoryConfig memory = stressMemory();
      memory.classifyMisses = mode != 2;
      SCOPED_TRACE(std::string(shapeName(shape)) +
                   (preemptive ? ", quanta" : ", run to completion") +
                   (memory.classifyMisses ? "" : ", no 3C classifier"));
      DriveOptions options;
      options.runToCompletionOneIn = 0;
      if (!preemptive) options.quanta.reset();
      Coverage coverage;
      drive(rig.workload, space,
            platformOf(shape, memory, stressCores(shape)), options,
            coverage);
      if (::testing::Test::HasFatalFailure()) return total;
      EXPECT_GT(coverage.jumperChunks, 0u);
      total.jumperChunks += coverage.jumperChunks;
      total.jumperFallbacks += coverage.jumperFallbacks;
      total.midIterationCuts += coverage.midIterationCuts;
    }
  }
  return total;
}

TEST(SegmentReplay, JumperAmongCollidingCoStreams) {
  StressRig rig;
  rig.addTransposeMix(0, 3);
  rig.addTransposeMix(2, 5);
  rig.addStream(0, 200);
  const Coverage coverage = driveJumperRig(rig);
  EXPECT_GT(coverage.jumperFallbacks, 0u);
  EXPECT_GT(coverage.midIterationCuts, 0u);
}

TEST(SegmentReplay, JumperWithLoopInvariantCoStream) {
  StressRig rig;
  rig.addColumnSum(0, 3);
  rig.addColumnSum(3, 6);
  rig.addColumnFold(0, 2);
  const Coverage coverage = driveJumperRig(rig);
  // A 64-iteration run needs at least three chunks under the 30-fill cap.
  EXPECT_GE(coverage.jumperChunks, 6u * 3u);
  EXPECT_GT(coverage.jumperFallbacks, 0u);
}

TEST(SegmentReplay, JumperCrossesCoStreamLine) {
  StressRig rig;
  rig.addSymmetrize(0, 4);
  rig.addSymmetrize(4, 8);
  driveJumperRig(rig);
}

TEST(SegmentReplay, StandardSuiteUnderLsmLayout) {
  // The paper's applications on the Table 2 caches, laid out by LSM's
  // re-layout pipeline (interleaved conflict arrays).
  const auto suite = standardSuite(AppParams{0.25});
  for (const std::size_t t :
       {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
    const Workload mix = concurrentScenario(suite, t);
    ExperimentConfig config;
    config.mpsoc.coreCount = 4;
    AddressSpace space(mix.arrays, config.addressSpace);
    const std::vector<Footprint> footprints = mix.footprints();
    const RelayoutPlan relayout = applyLsmRelayout(
        mix, footprints, SharingMatrix::compute(footprints), config, space);
    MemoryConfig memory = config.mpsoc.memory;
    memory.classifyMisses = true;
    for (const Shape shape : kShapes) {
      for (const std::uint64_t oneIn : {0, 8}) {
        SCOPED_TRACE(std::string(shapeName(shape)) + ", |T|=" +
                     std::to_string(t) + ", run to completion 1 in " +
                     std::to_string(oneIn));
        DriveOptions options;
        options.seed = t;
        options.runToCompletionOneIn = oneIn;
        Coverage coverage;
        ASSERT_NO_FATAL_FAILURE(drive(mix, space,
                                      platformOf(shape, memory, 4), options,
                                      coverage));
        EXPECT_GT(coverage.midIterationCuts, 0u);
        EXPECT_GT(coverage.migrations, 0u);
      }
    }
    if (t == 6) {
      EXPECT_GT(relayout.relayoutCount(), 0u);
    }
  }
}

}  // namespace
}  // namespace laps
