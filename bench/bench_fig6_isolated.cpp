/// \file bench_fig6_isolated.cpp
/// \brief Regenerates paper Figure 6: execution times of the six
/// applications under RS, RRS, LS and LSM when each runs in isolation on
/// the Table 2 platform (8 cores, 8 KB 2-way L1s, 75-cycle memory).
///
/// Expected shape (paper §4): LS and LSM clearly beat RS and RRS for
/// every application, and LS ≈ LSM (processes of one application share
/// data, so conflicts — LSM's target — are secondary).
///
/// With --csv the same data is emitted as CSV, which
/// bench/baselines/check_shapes.py consumes to flag paper-shape
/// violations and drift against the committed baselines.

#include <cstring>
#include <iostream>

#include "core/laps.h"

namespace {

void printFigure6(const laps::AppParams& params, bool csv) {
  using namespace laps;

  const auto suite = standardSuite(params);
  const auto kinds = paperSchedulers();
  ExperimentConfig config;  // Table 2 defaults

  Table table({"Application", "RS (ms)", "RRS (ms)", "LS (ms)", "LSM (ms)",
               "LS vs RS %", "LS vs RRS %", "LSM vs LS %"});
  Table misses({"Application", "RS misses", "RRS misses", "LS misses",
                "LSM misses", "LS missrate", "LSM missrate"});

  if (csv) {
    std::cout.precision(12);
    std::cout << "app,scheduler,makespan_cycles,seconds,dcache_misses,"
                 "dcache_accesses\n";
  }

  for (const auto& app : suite) {
    const auto results = compareSchedulers(app.workload, kinds, config);
    if (csv) {
      for (const auto& r : results) {
        std::cout << app.name << ',' << r.schedulerName << ','
                  << r.sim.makespanCycles << ',' << r.sim.seconds << ','
                  << r.sim.dcacheTotal.misses << ','
                  << r.sim.dcacheTotal.accesses << '\n';
      }
      continue;
    }
    const double rs = results[0].sim.seconds * 1e3;
    const double rrs = results[1].sim.seconds * 1e3;
    const double ls = results[2].sim.seconds * 1e3;
    const double lsm = results[3].sim.seconds * 1e3;
    table.row()
        .cell(app.name)
        .cell(rs, 3)
        .cell(rrs, 3)
        .cell(ls, 3)
        .cell(lsm, 3)
        .cell(percentImprovement(rs, ls), 1)
        .cell(percentImprovement(rrs, ls), 1)
        .cell(percentImprovement(ls, lsm), 1);
    misses.row()
        .cell(app.name)
        .cell(results[0].sim.dcacheTotal.misses)
        .cell(results[1].sim.dcacheTotal.misses)
        .cell(results[2].sim.dcacheTotal.misses)
        .cell(results[3].sim.dcacheTotal.misses)
        .cell(results[2].sim.dataMissRate(), 4)
        .cell(results[3].sim.dataMissRate(), 4);
  }

  if (!csv) {
    std::cout
        << "=== Figure 6: isolated execution times (Table 2 platform) ===\n"
        << table.ascii() << '\n'
        << "--- supporting detail: data-cache misses ---\n"
        << misses.ascii() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      std::cerr << "usage: bench_fig6_isolated [--csv]\n";
      return 2;
    }
  }
  printFigure6(laps::AppParams{}, csv);
  return 0;
}
