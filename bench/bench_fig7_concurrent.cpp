/// \file bench_fig7_concurrent.cpp
/// \brief Regenerates paper Figure 7: overall completion time when |T|
/// applications run concurrently (|T| = 1: Med-Im04; |T| = 2: + MxM; ...
/// up to all six), under RS, RRS, LS and LSM on the Table 2 platform.
///
/// Expected shape (paper §4): execution time grows with |T|; LS/LSM beat
/// RS/RRS throughout; and — unlike the isolated case — the LS-to-LSM gap
/// widens with |T|, because processes of different applications share no
/// data and conflict in the cache instead, which only the data re-layout
/// (LSM) removes.
///
/// Modes:
///   (none)      the paper's |T| = 1..6 tables;
///   --csv       the same data as CSV (bench/baselines/check_shapes.py
///               consumes this to flag paper-shape violations and drift
///               against the committed baselines);
///   --sweep [N] the large-|T| extension: mixes cycle through the suite
///               up to N applications (default 24 = 660 processes).

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/laps.h"
#include "util/parallel.h"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void printFigure7(const laps::AppParams& params, bool csv) {
  using namespace laps;

  const auto suite = standardSuite(params);
  const auto kinds = paperSchedulers();
  ExperimentConfig config;  // Table 2 defaults
  config.mpsoc.memory.classifyMisses = true;

  Table table({"|T|", "RS (ms)", "RRS (ms)", "LS (ms)", "LSM (ms)",
               "LS vs RS %", "LSM vs LS %"});
  Table detail({"|T|", "LS conflictM", "LSM conflictM", "LSM relayouts",
                "RS misses", "RRS misses", "LS misses", "LSM misses"});

  if (csv) {
    std::cout.precision(12);
    std::cout << "t,scheduler,processes,makespan_cycles,seconds,"
                 "dcache_misses,conflict_misses,relayouted_arrays\n";
  }

  // The |T| points are independent experiments: fan them out over the
  // pool and emit in order, so the CSV stays byte-exact with the serial
  // loop at any thread count.
  std::vector<Workload> mixes;
  mixes.reserve(suite.size());
  for (std::size_t t = 1; t <= suite.size(); ++t) {
    mixes.push_back(concurrentScenario(suite, t));
  }
  const auto allResults = parallelMap<std::vector<ExperimentResult>>(
      mixes.size(), [&](std::size_t i) {
        return compareSchedulers(mixes[i], kinds, config);
      });

  for (std::size_t t = 1; t <= suite.size(); ++t) {
    const Workload& mix = mixes[t - 1];
    const auto& results = allResults[t - 1];
    if (csv) {
      for (const auto& r : results) {
        std::cout << t << ',' << r.schedulerName << ','
                  << mix.graph.processCount() << ',' << r.sim.makespanCycles
                  << ',' << r.sim.seconds << ',' << r.sim.dcacheTotal.misses
                  << ',' << r.sim.dataMisses.conflict << ','
                  << r.relayoutedArrays << '\n';
      }
      continue;
    }
    const double rs = results[0].sim.seconds * 1e3;
    const double rrs = results[1].sim.seconds * 1e3;
    const double ls = results[2].sim.seconds * 1e3;
    const double lsm = results[3].sim.seconds * 1e3;
    table.row()
        .cell("|T|=" + std::to_string(t))
        .cell(rs, 3)
        .cell(rrs, 3)
        .cell(ls, 3)
        .cell(lsm, 3)
        .cell(percentImprovement(rs, ls), 1)
        .cell(percentImprovement(ls, lsm), 1);
    detail.row()
        .cell("|T|=" + std::to_string(t))
        .cell(results[2].sim.dataMisses.conflict)
        .cell(results[3].sim.dataMisses.conflict)
        .cell(results[3].relayoutedArrays)
        .cell(results[0].sim.dcacheTotal.misses)
        .cell(results[1].sim.dcacheTotal.misses)
        .cell(results[2].sim.dcacheTotal.misses)
        .cell(results[3].sim.dcacheTotal.misses);
  }

  if (!csv) {
    std::cout
        << "=== Figure 7: concurrent execution times (Table 2 platform) ===\n"
        << table.ascii() << '\n'
        << "--- supporting detail: conflict misses and re-layout ---\n"
        << detail.ascii() << '\n';
  }
}

/// The large-|T| sweep. Mixes cycle through the suite (independent
/// application instances), pushing the resident process count into the
/// hundreds.
void sweepLargeT(const laps::AppParams& params, std::size_t maxApps) {
  using namespace laps;

  const auto suite = standardSuite(params);
  const auto kinds = paperSchedulers();
  // Classification's shadow LRU dominates runtime at this scale and the
  // paper-shape detail is covered by the |T| <= 6 tables; keep the sweep
  // about completion times.
  ExperimentConfig config;

  // One full-suite step per row, and always a row at maxApps itself.
  std::vector<std::size_t> points;
  for (std::size_t t = std::min(suite.size(), maxApps); t < maxApps;
       t += suite.size()) {
    points.push_back(t);
  }
  points.push_back(maxApps);

  // Each |T| point is independent; fan the points out over the pool and
  // tabulate in order. The per-row wall clock is the row's own
  // busy time (rows share the machine while running concurrently, so it
  // is a throughput figure, not an isolated latency).
  struct SweepRow {
    std::vector<laps::ExperimentResult> results;
    std::size_t processes = 0;
    double wallMs = 0.0;
  };
  const auto totalStart = Clock::now();
  const auto rows = parallelMap<SweepRow>(points.size(), [&](std::size_t i) {
    const Workload mix = concurrentScenario(suite, points[i]);
    const auto start = Clock::now();
    SweepRow row;
    row.results = compareSchedulers(mix, kinds, config);
    row.wallMs = msSince(start);
    row.processes = mix.graph.processCount();
    return row;
  });
  const double totalWall = msSince(totalStart);

  Table table({"|T|", "processes", "RS (ms)", "RRS (ms)", "LS (ms)",
               "LSM (ms)", "sim wall (ms)"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepRow& row = rows[i];
    table.row()
        .cell("|T|=" + std::to_string(points[i]))
        .cell(row.processes)
        .cell(row.results[0].sim.seconds * 1e3, 3)
        .cell(row.results[1].sim.seconds * 1e3, 3)
        .cell(row.results[2].sim.seconds * 1e3, 3)
        .cell(row.results[3].sim.seconds * 1e3, 3)
        .cell(row.wallMs, 0);
  }
  std::cout << "=== Figure 7 extension: large concurrent mixes "
               "(run-length replay, " << parallelThreadCount()
            << " analysis/sweep threads, total wall "
            << static_cast<std::int64_t>(totalWall) << " ms) ===\n"
            << table.ascii() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  std::size_t sweep = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--sweep") {
      sweep = 24;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        char* end = nullptr;
        const long n = std::strtol(argv[++i], &end, 10);
        if (end == nullptr || *end != '\0' || n < 1) {
          std::cerr << "bench_fig7_concurrent: --sweep needs a positive "
                       "application count, got '"
                    << argv[i] << "'\n";
          return 2;
        }
        sweep = static_cast<std::size_t>(n);
      }
    } else {
      std::cerr << "usage: bench_fig7_concurrent [--csv | --sweep [N]]\n";
      return 2;
    }
  }
  if (sweep > 0) {
    sweepLargeT(laps::AppParams{}, sweep);
  } else {
    printFigure7(laps::AppParams{}, csv);
  }
  return 0;
}
