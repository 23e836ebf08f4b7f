/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the substrates: region
/// algebra throughput (footprints, sharing matrices), cache model
/// access rate, contention calendar bookings, trace generation, and
/// full simulation throughput.
///
/// These guard the performance of the analysis path (the paper's
/// scheduler runs inside an OS, so the sharing analysis must be cheap)
/// and of the simulator (the benches sweep dozens of configurations).

#include <benchmark/benchmark.h>

#include "core/laps.h"
#include "synthetic_overhead.h"

namespace {

using namespace laps;

void BM_IntervalSetIntersect(benchmark::State& state) {
  const auto pieces = static_cast<std::int64_t>(state.range(0));
  IntervalSet::Builder ba;
  IntervalSet::Builder bb;
  for (std::int64_t i = 0; i < pieces; ++i) {
    ba.add(i * 100, i * 100 + 60);
    bb.add(i * 100 + 40, i * 100 + 90);
  }
  const IntervalSet a = ba.build();
  const IntervalSet b = bb.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersectCardinality(b));
  }
  state.SetItemsProcessed(state.iterations() * pieces);
}
BENCHMARK(BM_IntervalSetIntersect)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IntervalSetIntersectSkewed(benchmark::State& state) {
  // One side is a handful of wide intervals, the other is tens of
  // thousands of fragments: the shape where a galloping advance beats
  // the element-wise merge.
  const auto pieces = static_cast<std::int64_t>(state.range(0));
  IntervalSet::Builder ba;
  IntervalSet::Builder bb;
  for (std::int64_t i = 0; i < 16; ++i) {
    ba.add(i * pieces * 8, i * pieces * 8 + 50);
  }
  for (std::int64_t i = 0; i < pieces; ++i) {
    bb.add(i * 100, i * 100 + 60);
  }
  const IntervalSet a = ba.build();
  const IntervalSet b = bb.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersectCardinality(b));
    benchmark::DoNotOptimize(b.intersectCardinality(a));
  }
  state.SetItemsProcessed(state.iterations() * pieces);
}
BENCHMARK(BM_IntervalSetIntersectSkewed)->Arg(4096)->Arg(65536);

void BM_IntervalSetSubtractSkewed(benchmark::State& state) {
  // Sparse minuend, densely fragmented subtrahend: most cutter pieces
  // fall in the gaps and should be skipped, not scanned.
  const auto pieces = static_cast<std::int64_t>(state.range(0));
  IntervalSet::Builder ba;
  IntervalSet::Builder bb;
  for (std::int64_t i = 0; i < 16; ++i) {
    ba.add(i * pieces * 8, i * pieces * 8 + 50);
  }
  for (std::int64_t i = 0; i < pieces; ++i) {
    bb.add(i * 100, i * 100 + 60);
  }
  const IntervalSet a = ba.build();
  const IntervalSet b = bb.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.subtract(b));
  }
  state.SetItemsProcessed(state.iterations() * pieces);
}
BENCHMARK(BM_IntervalSetSubtractSkewed)->Arg(4096)->Arg(65536);

void BM_FootprintProg1(benchmark::State& state) {
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {10000, 16}, 4);
  const ArrayAccess access{
      a, AffineMap{AffineExpr({1000, 1}, 0), AffineExpr::constant(5)},
      AccessKind::Read};
  const auto space = IterationSpace::box({{0, 8}, {0, 3000}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(accessFootprint(space, access, arrays.at(a)));
  }
}
BENCHMARK(BM_FootprintProg1);

void BM_FootprintStridedLarge(benchmark::State& state) {
  // A larger strided shape (64k points in stride-32 runs): the
  // enumeration cost the strided fast path attacks.
  ArrayTable arrays;
  const ArrayId a = arrays.add("A", {16384, 32}, 4);
  const ArrayAccess access{
      a, AffineMap{AffineExpr({512, 1}, 0), AffineExpr::constant(5)},
      AccessKind::Read};
  const auto space = IterationSpace::box({{0, 32}, {0, 2048}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(accessFootprint(space, access, arrays.at(a)));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 2048);
}
BENCHMARK(BM_FootprintStridedLarge);

void BM_SharingMatrixSuite(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, count);
  const auto footprints = mix.footprints();
  std::uint64_t intersections = 0;
  for (auto _ : state) {
    const SharingMatrix m = SharingMatrix::compute(footprints);
    intersections = m.intersections();
    benchmark::DoNotOptimize(m.activeCount());
  }
  state.SetLabel(std::to_string(mix.graph.processCount()) + " processes");
  // The deterministic work count: footprint pairs intersected, only
  // those that touch a common array.
  state.counters["intersections"] = static_cast<double>(intersections);
}
// Arg(12)/Arg(24) cover the hundreds-of-processes mixes (|T|=24 is 660
// processes, 217,470 pairs, of which compute() intersects the few
// thousand that touch a common array).
BENCHMARK(BM_SharingMatrixSuite)->Arg(1)->Arg(3)->Arg(6)->Arg(12)->Arg(24);

void BM_SharingMatrixIncremental(benchmark::State& state) {
  // One open-workload arrival event at steady state: removeProcess +
  // addProcess of a single process against |T| resident applications.
  // The comparison point is BM_SharingMatrixSuite at the same Arg — a
  // full recompute per event; the incremental path must beat it by
  // >= 5x at Arg(24). The process's class cells were intersected by
  // compute(), so the event only patches counts and the live classes'
  // sums: O(live classes), no intersection.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, count);
  const auto footprints = mix.footprints();
  SharingMatrix m = SharingMatrix::compute(footprints);
  const std::size_t p = footprints.size() / 2;
  for (auto _ : state) {
    m.removeProcess(p);
    m.addProcess(footprints, p);
    benchmark::DoNotOptimize(m.at(p, p));
  }
  state.SetLabel(std::to_string(mix.graph.processCount()) + " processes");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(footprints.size()));
}
BENCHMARK(BM_SharingMatrixIncremental)->Arg(12)->Arg(24);

// One open run's sharing upkeep at the saturation sweep's scale: a
// seeded 2048-request keyed service universe (48 keys) replayed through
// a seeded arrival/exit order from SharingMatrix::inactive — requests
// arrive in id order; once 512 are live each arrival follows the exit
// of a seeded random live request, and the rest exit at the end. The
// deterministic work counts: intersections (footprint pairs
// intersected, interning excluded) and table_cells (the class table's
// size).
void BM_SharingMatrixChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ServiceWorkloadParams params;
  params.requestCount = n;
  params.keyCount = 48;
  const std::vector<Footprint> footprints =
      makeServiceWorkload(params).footprints();
  struct Event {
    ProcessId process;
    bool arrival;
  };
  std::vector<Event> events;
  std::vector<ProcessId> live;
  Rng rng(0xc4012);
  const auto exitOne = [&] {
    const std::size_t i = rng.index(live.size());
    events.push_back({live[i], false});
    live[i] = live.back();
    live.pop_back();
  };
  constexpr std::size_t kBacklog = 512;
  for (ProcessId p = 0; p < n; ++p) {
    if (live.size() == kBacklog) exitOne();
    events.push_back({p, true});
    live.push_back(p);
  }
  while (!live.empty()) exitOne();
  std::uint64_t intersections = 0;
  std::size_t cells = 0;
  for (auto _ : state) {
    SharingMatrix m = SharingMatrix::inactive(n);
    for (const Event& e : events) {
      if (e.arrival) {
        m.addProcess(footprints, e.process);
      } else {
        m.removeProcess(e.process);
      }
    }
    intersections = m.intersections();
    cells = (m.classCount() + 1) * (m.classCount() + 1);
    benchmark::DoNotOptimize(m.activeCount());
  }
  state.SetLabel(std::to_string(n) + " processes");
  state.counters["intersections"] = static_cast<double>(intersections);
  state.counters["table_cells"] = static_cast<double>(cells);
}
BENCHMARK(BM_SharingMatrixChurn)->Arg(2048);

void BM_WorkloadFootprints(benchmark::State& state) {
  // Per-process footprint construction over a concurrent mix — the
  // other half of the analysis pipeline next to SharingMatrix::compute.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.footprints());
  }
  state.SetLabel(std::to_string(mix.graph.processCount()) + " processes");
}
BENCHMARK(BM_WorkloadFootprints)->Arg(6)->Arg(24);

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache(CacheConfig{});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr = (addr * 2654435761u + 97) & 0xFFFFF;
    benchmark::DoNotOptimize(cache.access(addr, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_CacheAccessHit(benchmark::State& state) {
  // The hit-dominated twin of BM_CacheAccess: a pseudo-random walk over a
  // working set of half the (Table 2) capacity, resident after warm-up —
  // the regime of the replay loop's per-event steps.
  SetAssocCache cache(CacheConfig{});
  const std::uint64_t workingSet = 4096;
  for (std::uint64_t a = 0; a < workingSet; a += 32) cache.access(a, false);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    addr = (addr * 2654435761u + 97) & (workingSet - 1);
    benchmark::DoNotOptimize(cache.access(addr, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

void BM_TraceGeneration(benchmark::State& state) {
  const Application app = makeMxM();
  const AddressSpace space(app.workload.arrays);
  const ProcessSpec& proc = app.workload.graph.process(5);
  for (auto _ : state) {
    ProcessTraceCursor cursor(proc, app.workload.arrays, space);
    TraceStep step;
    std::uint64_t steps = 0;
    while (cursor.next(step)) ++steps;
    benchmark::DoNotOptimize(steps);
    state.SetItemsProcessed(static_cast<std::int64_t>(steps) +
                            state.items_processed());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_TraceRuns(benchmark::State& state) {
  // Run-length trace description over the Fig. 7 |T| = 48 mix under its
  // LSM address space (the closed-lsm layout): every process drained
  // whole run by whole run through peekRun/consume, no cache model.
  const Workload mix = concurrentScenario(standardSuite(), 48);
  const std::vector<Footprint> footprints = mix.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(footprints);
  const ExperimentConfig config;
  AddressSpace space(mix.arrays, config.addressSpace);
  applyLsmRelayout(mix, footprints, sharing, config, space);
  std::int64_t runs = 0;
  for (auto _ : state) {
    std::int64_t steps = 0;
    runs = 0;
    TraceRun run;
    for (const ProcessSpec& spec : mix.graph.processes()) {
      ProcessTraceCursor cursor(spec, mix.arrays, space);
      while (cursor.peekRun(run)) {
        steps += run.steps();
        ++runs;
        cursor.consume(run.steps());
      }
    }
    benchmark::DoNotOptimize(steps);
    state.SetItemsProcessed(steps + state.items_processed());
  }
  state.counters["runs"] = static_cast<double>(runs);
}
BENCHMARK(BM_TraceRuns);

void BM_FullSimulationShape(benchmark::State& state) {
  const Application app = makeShape();
  for (auto _ : state) {
    const auto r = runExperiment(app.workload, SchedulerKind::Locality, {});
    benchmark::DoNotOptimize(r.sim.makespanCycles);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(r.sim.dcacheTotal.accesses) +
        state.items_processed());
  }
}
BENCHMARK(BM_FullSimulationShape);

// PlanIndex::candidatesRead of one full plan: the planner's
// deterministic work count (argmax candidates read).
double planCandidates(const ExtendedProcessGraph& graph,
                      const SharingMatrix& sharing, std::size_t coreCount,
                      std::span<const ProcessId> subset = {}) {
  PlanIndex planner;
  benchmark::DoNotOptimize(
      buildLocalityPlan(graph, sharing, coreCount, {}, subset, planner));
  return static_cast<double>(planner.candidatesRead());
}

void BM_LocalityPlan(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, count);
  const auto footprints = mix.footprints();
  const SharingMatrix sharing = SharingMatrix::compute(footprints);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildLocalityPlan(mix.graph, sharing, 8));
  }
  state.counters["candidates"] = planCandidates(mix.graph, sharing, 8);
  state.SetLabel(std::to_string(mix.graph.processCount()) + " processes");
}
BENCHMARK(BM_LocalityPlan)->Arg(1)->Arg(6)->Arg(12)->Arg(24);

// Large-|T| planning on the synthetic layered instance of
// bench_policy_overhead (synthetic_overhead.h): |T| in the thousands is
// where the indexed planner's complexity separates from Fig. 3's
// O(|T|) rescans per placement.
void BM_LocalityPlanLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Workload mix = synth::makeLayeredWorkload(n, 64);
  const SharingMatrix sharing = synth::makeBandedSharing(n, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildLocalityPlan(mix.graph, sharing, 8));
  }
  state.counters["candidates"] = planCandidates(mix.graph, sharing, 8);
  state.SetLabel(std::to_string(n) + " processes, layered");
}
BENCHMARK(BM_LocalityPlanLarge)->Arg(1000)->Arg(4000);

// An OLS rebuild's input at service scale: a seeded keyed service
// workload of n requests over 48 keys (the saturation sweep's overload
// point) on an open matrix grown by addProcess, planned on 4 cores over
// a dependence-free live subset: every third of the first min(n, 2048)
// requests active, every seventeenth of those left out as running. One
// planner index serves every plan, as in OLS, so /16384 plans the live
// set of /2048 in an 8x larger universe and should take the same time.
// live and classes count the planned processes and their sharing
// classes, candidates the argmax candidates one plan reads
// (PlanIndex::candidatesRead).
void BM_LocalityPlanOpenService(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ServiceWorkloadParams params;
  params.requestCount = n;
  params.keyCount = 48;
  const Workload service = makeServiceWorkload(params);
  const std::vector<Footprint> footprints = service.footprints();
  SharingMatrix sharing = SharingMatrix::inactive(n);
  std::vector<ProcessId> live;
  for (ProcessId p = 0; p < std::min<std::size_t>(n, 2048); p += 3) {
    sharing.addProcess(footprints, p);
    if (p % 17 != 0) live.push_back(p);
  }
  PlanIndex planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buildLocalityPlan(service.graph, sharing, 4, {}, live, planner));
  }
  std::vector<bool> seen(sharing.classCount(), false);
  std::size_t classes = 0;
  for (const ProcessId p : live) {
    classes += seen[sharing.classOf(p)] ? 0 : 1;
    seen[sharing.classOf(p)] = true;
  }
  state.counters["live"] = static_cast<double>(live.size());
  state.counters["classes"] = static_cast<double>(classes);
  state.counters["candidates"] =
      static_cast<double>(planner.candidatesRead());
}
BENCHMARK(BM_LocalityPlanOpenService)->Arg(512)->Arg(2048)->Arg(16384);

// Fig. 5 re-layout selection on a seeded n-array conflict matrix (272
// is the array count of the |T|=48 concurrent mix) with mean T, a
// 1-in-8 eligibility relation and no size guard. examined_pairs is the
// deterministic work count: pairs above T the walk actually examines.
void BM_PlanRelayout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(0x5eed0000 + n);
  ConflictMatrix conflicts(n);
  std::vector<bool> eligibleCells(n * n, false);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      const auto v = static_cast<std::int64_t>(rng.below(4096));
      conflicts.set(x, y, v);
      conflicts.set(y, x, v);
      eligibleCells[x * n + y] = rng.below(8) == 0;
    }
  }
  const PairEligibility eligible = [&eligibleCells, n](ArrayId x, ArrayId y) {
    return eligibleCells[std::min<std::size_t>(x, y) * n +
                         std::max<std::size_t>(x, y)];
  };
  const CacheConfig cache{};
  std::size_t examined = 0;
  for (auto _ : state) {
    const RelayoutPlan plan = planRelayout(conflicts, cache, eligible);
    examined = plan.examinedPairs.size();
    benchmark::DoNotOptimize(plan.transforms.data());
  }
  state.counters["examined_pairs"] = static_cast<double>(examined);
  state.SetLabel(std::to_string(n) + " arrays");
}
BENCHMARK(BM_PlanRelayout)->Arg(68)->Arg(272);

// The contention calendar under a mesh-link-like stream: requests
// issued out of order within a window above a periodically advancing
// retire horizon (the owners' lazy horizon-then-book), holding ~100
// live intervals. Each iteration replays the same seeded stream on a
// fresh calendar; bookings and live_intervals (the live span averaged
// over the horizon steps) are the deterministic work counts.
constexpr std::uint64_t kLinkStreamSeed = 0x5eedca1e;
constexpr std::int64_t kLinkStreamBookings = 8192;
constexpr std::int64_t kLinkStreamPerHorizon = 4;  // bookings per step
constexpr std::int64_t kLinkStreamHorizonStep = 48;
constexpr std::int64_t kLinkStreamWindow = 3200;  // issue spread

void BM_BusyTimelineReserve(benchmark::State& state) {
  std::int64_t liveSum = 0;
  for (auto _ : state) {
    Rng rng(kLinkStreamSeed);
    BusyTimeline calendar;
    std::int64_t horizon = 0;
    liveSum = 0;
    for (std::int64_t i = 0; i < kLinkStreamBookings; ++i) {
      if (i % kLinkStreamPerHorizon == 0) {
        horizon += kLinkStreamHorizonStep;
        calendar.retireBefore(horizon);
        liveSum += static_cast<std::int64_t>(calendar.intervalCount());
      }
      benchmark::DoNotOptimize(
          calendar.reserve(horizon + rng.range(0, kLinkStreamWindow), 4));
    }
  }
  state.SetItemsProcessed(state.iterations() * kLinkStreamBookings);
  state.counters["bookings"] = static_cast<double>(kLinkStreamBookings);
  state.counters["live_intervals"] = static_cast<double>(
      liveSum / (kLinkStreamBookings / kLinkStreamPerHorizon));
}
BENCHMARK(BM_BusyTimelineReserve);

// BM_BusyTimelineReserve's stream at one-cycle bookings (a 32 B line on
// a 32 B link, the committed meshes' link occupancy), replayed through
// \p book(calendar, horizon, now) on a fresh calendar per iteration.
template <typename Calendar, typename Book>
void replayOneCycleLinkStream(benchmark::State& state, Book book) {
  for (auto _ : state) {
    Rng rng(kLinkStreamSeed);
    Calendar calendar;
    std::int64_t horizon = 0;
    for (std::int64_t i = 0; i < kLinkStreamBookings; ++i) {
      if (i % kLinkStreamPerHorizon == 0) horizon += kLinkStreamHorizonStep;
      benchmark::DoNotOptimize(
          book(calendar, horizon, horizon + rng.range(0, kLinkStreamWindow)));
    }
  }
  state.SetItemsProcessed(state.iterations() * kLinkStreamBookings);
  state.counters["bookings"] = static_cast<double>(kLinkStreamBookings);
}

// The NoC link calendar (cache/noc.h) on that stream, and its twin: the
// same stream on the interval calendar, booked the way the bus and L2
// owners book (lazy horizon, then reserve). The merge script derives
// vs_busytimeline_speedup (interval cpu / ring cpu) on the first row and
// check_bench_regression gates it, so the ring losing its edge on link
// traffic fails the perf gate.
void BM_LinkCalendarReserve(benchmark::State& state) {
  replayOneCycleLinkStream<LinkCalendar>(
      state, [](LinkCalendar& link, std::int64_t horizon, std::int64_t now) {
        return link.reserve(now, 1, horizon);
      });
}
BENCHMARK(BM_LinkCalendarReserve);

void BM_LinkCalendarReserveOnBusyTimeline(benchmark::State& state) {
  replayOneCycleLinkStream<BusyTimeline>(
      state, [](BusyTimeline& link, std::int64_t horizon, std::int64_t now) {
        link.retireBefore(horizon);
        return link.reserve(now, 1);
      });
}
BENCHMARK(BM_LinkCalendarReserveOnBusyTimeline);

// The fault-path overhead guard (docs §13): the same open service run
// with a FaultPlan attached whose every rate is zero — the plan is
// inert, no injection is ever queued, and the engine must take the
// exact fault-free code path. The merge script derives vs_faultfree_speedup
// from the (BM_OpenWorkloadFaultPathFaultFree, BM_OpenWorkloadFaultPath)
// pair; check_bench_regression gates it, so the zero-rate path drifting
// out of the fault-free noise band fails the perf gate.
void BM_OpenWorkloadFaultPath(benchmark::State& state) {
  ServiceWorkloadParams params;
  const Workload service = makeServiceWorkload(params);
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = 2000;
  config.mpsoc.arrivals->granularity = ArrivalGranularity::PerProcess;
  config.mpsoc.arrivals->distribution = ArrivalDistribution::Exponential;
  config.mpsoc.faults.emplace();  // every mean zero: configured, inert
  for (auto _ : state) {
    const auto r = runExperiment(service, SchedulerKind::DynamicLocality, config);
    benchmark::DoNotOptimize(r.sim.makespanCycles);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(r.sim.dcacheTotal.accesses) +
        state.items_processed());
  }
}
BENCHMARK(BM_OpenWorkloadFaultPath);

void BM_OpenWorkloadFaultPathFaultFree(benchmark::State& state) {
  ServiceWorkloadParams params;
  const Workload service = makeServiceWorkload(params);
  ExperimentConfig config;
  config.mpsoc.arrivals.emplace();
  config.mpsoc.arrivals->meanInterArrivalCycles = 2000;
  config.mpsoc.arrivals->granularity = ArrivalGranularity::PerProcess;
  config.mpsoc.arrivals->distribution = ArrivalDistribution::Exponential;
  for (auto _ : state) {
    const auto r = runExperiment(service, SchedulerKind::DynamicLocality, config);
    benchmark::DoNotOptimize(r.sim.makespanCycles);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(r.sim.dcacheTotal.accesses) +
        state.items_processed());
  }
}
BENCHMARK(BM_OpenWorkloadFaultPathFaultFree);

}  // namespace

BENCHMARK_MAIN();
