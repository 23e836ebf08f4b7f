#include <gtest/gtest.h>

#include <set>

#include "../region/sharing_builder.h"
#include "layout/address_space.h"
#include "sched/basic.h"
#include "sched/dynamic_locality.h"
#include "sched/factory.h"
#include "util/error.h"

namespace laps {
namespace {

ExtendedProcessGraph nProcesses(std::size_t n,
                                std::int64_t iterations = 10) {
  ExtendedProcessGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    ProcessSpec p;
    p.name = "P" + std::to_string(i);
    p.nests.push_back(LoopNest{
        IterationSpace::box({{0, iterations * static_cast<std::int64_t>(i + 1)}}),
        {},
        1});
    g.addProcess(std::move(p));
  }
  return g;
}

TEST(ToString, AllKinds) {
  EXPECT_EQ(to_string(SchedulerKind::Random), "RS");
  EXPECT_EQ(to_string(SchedulerKind::RoundRobin), "RRS");
  EXPECT_EQ(to_string(SchedulerKind::Locality), "LS");
  EXPECT_EQ(to_string(SchedulerKind::LocalityMapping), "LSM");
  EXPECT_EQ(to_string(SchedulerKind::Fcfs), "FCFS");
  EXPECT_EQ(to_string(SchedulerKind::Sjf), "SJF");
  EXPECT_EQ(to_string(SchedulerKind::CriticalPath), "CPATH");
  EXPECT_EQ(to_string(SchedulerKind::DynamicLocality), "DLS");
  EXPECT_EQ(to_string(SchedulerKind::L2ContentionAware), "CALS");
  EXPECT_EQ(to_string(SchedulerKind::OnlineLocality), "OLS");
}

TEST(ToString, ExhaustiveOverEveryKind) {
  // kAllSchedulerKinds is the enum's declaration-order catalogue (the
  // compiler's -Werror=switch on to_string's switch keeps them in sync);
  // every kind must map to a unique, non-empty, stable short name.
  std::set<std::string> names;
  for (const SchedulerKind kind : kAllSchedulerKinds) {
    const std::string name = to_string(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate scheduler name " << name;
  }
  EXPECT_EQ(names.size(), kAllSchedulerKinds.size());
}

TEST(Factory, CreatesEveryKind) {
  for (const auto kind : kAllSchedulerKinds) {
    const auto policy = makeScheduler(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
    // The factory's policy answers to the catalogue name (LSM shares
    // LS's policy object; the re-layout half lives in the harness).
    if (kind != SchedulerKind::LocalityMapping) {
      EXPECT_EQ(policy->name(), to_string(kind));
    }
  }
}

TEST(Factory, ValidatesParamsEagerly) {
  // A bad configuration must fail at makeScheduler, not deep inside
  // MpsocSimulator::run().
  SchedulerParams params;
  params.rrsQuantumCycles = 0;
  EXPECT_THROW(makeScheduler(SchedulerKind::RoundRobin, params), Error);
  params.rrsQuantumCycles = -100;
  EXPECT_THROW(makeScheduler(SchedulerKind::RoundRobin, params), Error);
  // The quantum is an RRS-only parameter: other kinds ignore it.
  EXPECT_NE(makeScheduler(SchedulerKind::Fcfs, params), nullptr);

  params = SchedulerParams{};
  params.l2Contention.l2Geometry.sizeBytes = 1000;  // not a set multiple
  EXPECT_THROW(makeScheduler(SchedulerKind::L2ContentionAware, params), Error);
  EXPECT_NE(makeScheduler(SchedulerKind::Locality, params), nullptr);

  params = SchedulerParams{};
  params.onlineLocality.rebuildThreshold = -1;
  EXPECT_THROW(makeScheduler(SchedulerKind::OnlineLocality, params), Error);
  EXPECT_THROW(validateSchedulerParams(SchedulerKind::OnlineLocality, params),
               Error);
  // The threshold is OLS-only: other kinds ignore it.
  EXPECT_NE(makeScheduler(SchedulerKind::DynamicLocality, params), nullptr);
}

TEST(Factory, OnlyRoundRobinIsPreemptive) {
  EXPECT_TRUE(makeScheduler(SchedulerKind::RoundRobin)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Random)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Locality)->quantum().has_value());
  EXPECT_FALSE(makeScheduler(SchedulerKind::Sjf)->quantum().has_value());
}

TEST(Factory, QuantumParamHonored) {
  SchedulerParams params;
  params.rrsQuantumCycles = 12345;
  EXPECT_EQ(makeScheduler(SchedulerKind::RoundRobin, params)->quantum(),
            12345);
}

TEST(RandomScheduler, DrainsAllReadyExactlyOnce) {
  RandomScheduler policy(7);
  policy.reset({});
  for (ProcessId p = 0; p < 10; ++p) policy.onReady(p);
  std::set<ProcessId> picked;
  for (int i = 0; i < 10; ++i) {
    const auto pick = policy.pickNext(0, std::nullopt);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(picked.insert(*pick).second);
  }
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

TEST(RandomScheduler, SeedReproducible) {
  const auto drain = [](std::uint64_t seed) {
    RandomScheduler policy(seed);
    policy.reset({});
    for (ProcessId p = 0; p < 20; ++p) policy.onReady(p);
    std::vector<ProcessId> order;
    while (const auto pick = policy.pickNext(0, std::nullopt)) {
      order.push_back(*pick);
    }
    return order;
  };
  EXPECT_EQ(drain(5), drain(5));
  EXPECT_NE(drain(5), drain(6));
}

TEST(RandomScheduler, ResetRestartsStream) {
  RandomScheduler policy(9);
  policy.reset({});
  for (ProcessId p = 0; p < 5; ++p) policy.onReady(p);
  std::vector<ProcessId> first;
  while (const auto pick = policy.pickNext(0, std::nullopt)) {
    first.push_back(*pick);
  }
  policy.reset({});
  for (ProcessId p = 0; p < 5; ++p) policy.onReady(p);
  std::vector<ProcessId> second;
  while (const auto pick = policy.pickNext(0, std::nullopt)) {
    second.push_back(*pick);
  }
  EXPECT_EQ(first, second);
}

TEST(RoundRobinScheduler, FifoOrder) {
  RoundRobinScheduler policy(1000);
  policy.reset({});
  policy.onReady(3);
  policy.onReady(1);
  policy.onReady(2);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

TEST(RoundRobinScheduler, PreemptedGoesToTail) {
  RoundRobinScheduler policy(1000);
  policy.reset({});
  policy.onReady(0);
  policy.onReady(1);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
  policy.onPreempt(0);  // 0 must requeue behind 1
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
}

TEST(RoundRobinScheduler, RejectsNonPositiveQuantum) {
  EXPECT_THROW(RoundRobinScheduler(0), Error);
  EXPECT_THROW(RoundRobinScheduler(-5), Error);
}

TEST(FcfsScheduler, OrderAndNoQuantum) {
  FcfsScheduler policy;
  policy.reset({});
  policy.onReady(2);
  policy.onReady(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
  EXPECT_FALSE(policy.quantum().has_value());
}

TEST(SjfScheduler, PicksShortestEstimatedJob) {
  const auto g = nProcesses(4);  // cycles grow with id
  SjfScheduler policy;
  policy.reset(SchedContext{&g, nullptr, 2});
  policy.onReady(3);
  policy.onReady(1);
  policy.onReady(2);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
}

TEST(SjfScheduler, RequiresGraph) {
  SjfScheduler policy;
  EXPECT_THROW(policy.reset({}), Error);
}

TEST(CriticalPathScheduler, PrefersLongChains) {
  // 0 -> 1 -> 2 (long chain), 3 isolated and short.
  ExtendedProcessGraph g = nProcesses(4, 10);
  g.addDependence(0, 1);
  g.addDependence(1, 2);
  CriticalPathScheduler policy;
  policy.reset(SchedContext{&g, nullptr, 2});
  policy.onReady(0);
  policy.onReady(3);
  // 0 heads a chain: rank(0) = c0+c1+c2 > rank(3) = c3.
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 0u);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 3u);
}

TEST(DynamicLocalityScheduler, PicksMaxSharingWithPrevious) {
  const auto g = nProcesses(4);
  const SharingMatrix m =
      test::SharingBuilder(4).pair(0, 2, 500).pair(0, 1, 100).build();
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onReady(1);
  policy.onReady(2);
  policy.onReady(3);
  // Previous on this core was 0: pick 2 (sharing 500).
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
  // Then 1 (sharing 100) over 3 (0).
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 1u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);
}

TEST(DynamicLocalityScheduler, NoPreviousFallsBackToFifo) {
  const auto g = nProcesses(3);
  const SharingMatrix m = test::SharingBuilder(3).build();
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 1});
  policy.onReady(2);
  policy.onReady(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
}

TEST(DynamicLocalityScheduler, RequiresSharing) {
  DynamicLocalityScheduler policy;
  EXPECT_THROW(policy.reset({}), Error);
}

TEST(DynamicLocalityScheduler, ArrivalStampsBreakTiesByArrivalOrder) {
  // P1, P2, P3 share equally with previous P0; P3 arrived first but was
  // readied last (a preempted old process re-queues at the tail). With
  // arrival stamps, the tie falls to the earliest arrival, not to ready
  // order.
  const auto g = nProcesses(4);
  const SharingMatrix m = test::SharingBuilder(4)
                              .pair(0, 1, 50)
                              .pair(0, 2, 50)
                              .pair(0, 3, 50)
                              .build();
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onArrival(3);
  policy.onArrival(1);
  policy.onArrival(2);
  policy.onReady(1);
  policy.onReady(2);
  policy.onReady(3);  // readied last, arrived first
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 1u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
}

TEST(DynamicLocalityScheduler, ClosedModeKeepsFifoTiesWithoutArrivals) {
  const auto g = nProcesses(4);
  const SharingMatrix m = test::SharingBuilder(4).build();
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 2});
  policy.onReady(3);
  policy.onReady(1);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);  // plain ready order
}

TEST(DynamicLocalityScheduler, ExitDropsStaleReadyEntry) {
  const auto g = nProcesses(3);
  const SharingMatrix m = test::SharingBuilder(3).build();
  DynamicLocalityScheduler policy;
  policy.reset(SchedContext{&g, &m, 1});
  policy.onReady(0);
  policy.onReady(1);
  policy.onExit(0);  // e.g. retired while waiting
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_FALSE(policy.pickNext(0, std::nullopt).has_value());
}

/// Three processes over three arrays laid out so that — in a 32-set L2
/// view — P0's and P2's footprints co-map into the same sets while P1's
/// occupies the other half: conflict(P0, P2) > 0, conflict(P0, P1) == 0,
/// and nobody shares any data.
struct ContentionRig {
  Workload workload;
  AddressSpace space;
  SharingMatrix sharing;
  SchedContext context;

  static Workload build() {
    Workload w;
    // 512 B each, placed contiguously 32-byte aligned: X spans sets
    // 0..15, Y sets 16..31, Z wraps back onto 0..15.
    const ArrayId x = w.arrays.add("X", {128}, 4);
    const ArrayId y = w.arrays.add("Y", {128}, 4);
    const ArrayId z = w.arrays.add("Z", {128}, 4);
    for (const ArrayId a : {x, y, z}) {
      ProcessSpec p;
      p.name = "P" + std::to_string(a);
      p.nests.push_back(LoopNest{
          IterationSpace::box({{0, 128}}),
          {ArrayAccess{a, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
          1});
      w.graph.addProcess(std::move(p));
    }
    return w;
  }

  ContentionRig()
      : workload(build()),
        space(workload.arrays, AddressSpaceOptions{0x1000'0000, 32}),
        sharing(SharingMatrix::compute(workload.footprints())),
        context{&workload.graph, &sharing, 2, &workload, &space} {}

  static L2ContentionOptions options() {
    L2ContentionOptions o;
    o.l2Geometry = CacheConfig{1024, 1, 32, 8};  // 32 sets
    return o;
  }
};

TEST(L2ContentionAwareScheduler, ConflictMatrixFollowsTheLayout) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  EXPECT_GT(policy.conflictBetween(0, 2), 0);  // X and Z co-map
  EXPECT_EQ(policy.conflictBetween(0, 1), 0);  // X and Y are disjoint sets
  EXPECT_EQ(policy.conflictBetween(1, 2), 0);
}

TEST(L2ContentionAwareScheduler, AvoidsCoSchedulingConflictingFootprints) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);  // P0 runs on core 0
  policy.onReady(2);  // conflicts with running P0, ready first
  policy.onReady(1);  // conflict-free
  // Core 1 must prefer the conflict-free process despite FIFO order...
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);
  // ...and once P0 completes, the penalty vanishes.
  policy.onComplete(0);
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);
}

/// CALS candidates that both share data with the anchor and conflict
/// with a process running on the other core, each with known integer
/// terms. Arrays A and S are 256 4-byte elements (1024 B, one period of
/// the 32-set L2 view) laid out back to back from set 0:
///  * P0, the anchor, reads S[0, 64) — sets 0..7;
///  * P1, the co-runner, reads A[128, 192) — one line in each of sets
///    16..23;
///  * candidate i reads S[0, share) — sharing(P0, i) = share elements,
///    all in sets 0..7, clear of P1 — and A[128, 128 + 8 * lines) —
///    one line in each of sets 16.., so conflict(i, P1) = lines.
struct IntegerScoreRig {
  struct Candidate {
    std::int64_t share;
    std::int64_t lines;
  };

  Workload workload;
  AddressSpace space;
  SharingMatrix sharing;
  SchedContext context;

  static void addReader(ProcessSpec& p, ArrayId array, std::int64_t lo,
                        std::int64_t hi) {
    if (hi <= lo) return;
    p.nests.push_back(LoopNest{
        IterationSpace::box({{lo, hi}}),
        {ArrayAccess{array, AffineMap{AffineExpr({1}, 0)}, AccessKind::Read}},
        1});
  }

  static Workload build(const std::vector<Candidate>& candidates) {
    Workload w;
    const ArrayId a = w.arrays.add("A", {256}, 4);
    const ArrayId s = w.arrays.add("S", {256}, 4);
    ProcessSpec anchor;
    anchor.name = "anchor";
    addReader(anchor, s, 0, 64);
    w.graph.addProcess(std::move(anchor));
    ProcessSpec runner;
    runner.name = "runner";
    addReader(runner, a, 128, 192);
    w.graph.addProcess(std::move(runner));
    for (const Candidate& c : candidates) {
      ProcessSpec p;
      p.name = "C" + std::to_string(w.graph.processCount());
      addReader(p, s, 0, c.share);
      addReader(p, a, 128, 128 + 8 * c.lines);
      w.graph.addProcess(std::move(p));
    }
    return w;
  }

  explicit IntegerScoreRig(const std::vector<Candidate>& candidates)
      : workload(build(candidates)),
        space(workload.arrays, AddressSpaceOptions{0x1000'0000, 32}),
        sharing(SharingMatrix::compute(workload.footprints())),
        context{&workload.graph, &sharing, 2, &workload, &space} {}

  /// Runs the anchor to completion on core 0 while the runner keeps
  /// core 1 busy, then readies \p ready in that order.
  static void stage(L2ContentionAwareScheduler& policy,
                    const std::vector<ProcessId>& ready) {
    policy.onReady(0);
    ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
    policy.onReady(1);
    ASSERT_EQ(policy.pickNext(1, std::nullopt), 1u);
    policy.onComplete(0);
    for (const ProcessId p : ready) policy.onReady(p);
  }
};

TEST(L2ContentionAwareScheduler, ScoresSharingMinusConflictsInIntegers) {
  // Candidates 2..4: s - c = 40 - 8 = 32, 10 - 0 = 10, 36 - 2 = 34.
  // Pure sharing would pick 2, pure conflict avoidance 3; s - c picks 4.
  const std::vector<IntegerScoreRig::Candidate> candidates{
      {40, 8}, {10, 0}, {36, 2}};
  IntegerScoreRig rig(candidates);
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  for (ProcessId p = 2; p < 5; ++p) {
    EXPECT_EQ(rig.sharing.at(0, p), candidates[p - 2].share) << "P" << p;
    EXPECT_EQ(policy.conflictBetween(p, 1), candidates[p - 2].lines)
        << "P" << p;
  }
  IntegerScoreRig::stage(policy, {2, 3, 4});
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 4u);
}

TEST(L2ContentionAwareScheduler, OneLinePairCostsExactlyOneSharedElement) {
  // Candidates 2..4: 36 - 2 = 34, 38 - 4 = 34 (two more elements buy
  // exactly two more line pairs), 38 - 5 = 33 (one pair more: loses).
  const std::vector<IntegerScoreRig::Candidate> candidates{
      {36, 2}, {38, 4}, {38, 5}};
  for (const std::vector<ProcessId>& order :
       {std::vector<ProcessId>{2, 3, 4}, std::vector<ProcessId>{4, 3, 2}}) {
    // Closed workload: equal scores fall to ready-order FIFO.
    IntegerScoreRig rig(candidates);
    L2ContentionAwareScheduler policy(ContentionRig::options());
    policy.reset(rig.context);
    IntegerScoreRig::stage(policy, order);
    const ProcessId first = order[0] == 4 ? 3u : 2u;
    EXPECT_EQ(policy.pickNext(0, ProcessId{0}), first);
    EXPECT_EQ(policy.pickNext(0, ProcessId{0}), first == 2u ? 3u : 2u);
    EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 4u);
  }
  // Open workload: the earlier arrival wins the tie against ready order.
  IntegerScoreRig rig(candidates);
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  policy.onArrival(3);
  policy.onArrival(2);
  IntegerScoreRig::stage(policy, {2, 3});
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 3u);
}

TEST(L2ContentionAwareScheduler, PreemptionReleasesThePenalty) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);
  policy.onPreempt(0);  // suspended: no longer occupies the L2
  policy.onReady(2);
  // P0 is back in the queue (FIFO ahead of P2) and nothing is running,
  // so the conflicting P2 is not penalized against anything.
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 0u);
  EXPECT_EQ(policy.pickNext(0, ProcessId{0}), 2u);
}

TEST(L2ContentionAwareScheduler, ExitOfARunningProcessReleasesThePenalty) {
  // A retirement fires onExit without onComplete: the retired process
  // must stop penalizing co-runners all the same.
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  policy.onReady(0);
  ASSERT_EQ(policy.pickNext(0, std::nullopt), 0u);  // P0 occupies the L2
  policy.onReady(2);
  policy.onReady(1);
  EXPECT_EQ(policy.pickNext(1, std::nullopt), 1u);  // P2 conflicts with P0
  policy.onExit(0);  // retired mid-run
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 2u);  // penalty gone
}

TEST(L2ContentionAwareScheduler, ExitDropsStaleReadyEntry) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  policy.reset(rig.context);
  policy.onReady(0);
  policy.onReady(1);
  policy.onExit(0);  // left while still queued
  EXPECT_EQ(policy.pickNext(0, std::nullopt), 1u);
  EXPECT_FALSE(policy.pickNext(1, std::nullopt).has_value());
}

TEST(L2ContentionAwareScheduler, RequiresWorkloadAndSpace) {
  ContentionRig rig;
  L2ContentionAwareScheduler policy(ContentionRig::options());
  SchedContext incomplete = rig.context;
  incomplete.workload = nullptr;
  EXPECT_THROW(policy.reset(incomplete), Error);
  incomplete = rig.context;
  incomplete.space = nullptr;
  EXPECT_THROW(policy.reset(incomplete), Error);
  incomplete = rig.context;
  incomplete.coreCount = 0;
  EXPECT_THROW(policy.reset(incomplete), Error);
}

TEST(L2ContentionAwareScheduler, ConflictMemoOrderInsensitive) {
  // The determinism contract's LINT-ALLOW on conflictMemo_ (an
  // unordered_map) rests on it being a pure find/emplace memo. This
  // pins the claim three ways: the score is symmetric, agrees with a
  // fresh instance that computed the same pairs in a different order,
  // and never changes once memoized — so hash order cannot reach any
  // scheduling decision.
  ContentionRig rig;
  L2ContentionAwareScheduler forward(ContentionRig::options());
  L2ContentionAwareScheduler backward(ContentionRig::options());
  forward.reset(rig.context);
  backward.reset(rig.context);
  const std::size_t n = rig.workload.graph.processCount();
  std::vector<std::int64_t> first;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      first.push_back(forward.conflictBetween(a, b));
    }
  }
  std::vector<std::int64_t> reversed;
  for (std::size_t a = n; a-- > 0;) {
    for (std::size_t b = n; b-- > 0;) {
      reversed.push_back(backward.conflictBetween(a, b));
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const std::int64_t score = first[a * n + b];
      EXPECT_EQ(score, first[b * n + a]) << "asymmetric " << a << "," << b;
      EXPECT_EQ(score, reversed[(n - 1 - a) * n + (n - 1 - b)])
          << "population order leaked into " << a << "," << b;
      // Re-query: the memoized value must be stable.
      EXPECT_EQ(forward.conflictBetween(a, b), score);
    }
  }
}

}  // namespace
}  // namespace laps
