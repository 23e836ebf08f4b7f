/// \file bench_policy_overhead.cpp
/// \brief Scheduling-decision throughput of the dynamic policies.
///
/// Every other bench measures the *simulated* system; this one measures
/// the scheduler itself. A windowed driver streams a layered synthetic
/// workload (synthetic_overhead.h) through a policy — arrivals admitted
/// until ~window processes are live, one dispatch round per step, every
/// dispatched process completing and exiting at the end of its round —
/// and reports decisions/second and ns/event for DLS, CALS and OLS (on
/// the PlanIndex core, hence the OLS-idx label).
///
/// The event protocol is the simulation engine's (onArrival before
/// onReady, onComplete then onExit, readiness fired exactly once), so
/// the costs measured are the ones the engine pays — without the cache
/// model drowning them out.
///
/// Each row carries an FNV-1a checksum over the (core, process)
/// dispatch sequence. The committed OLS-idx checksums were recorded
/// while a pre-index OLS implementation produced the same ones, so the
/// baseline diff pins every dispatch decision. Timing columns are
/// excluded from that diff (wall-clock is machine-dependent); the shape
/// check (check_shapes.py --decision-throughput) instead asserts that
/// OLS-idx's ns/event scales: at the largest |T| it may be at most the
/// allowed factor above its value at |T| = 1000.

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/laps.h"
#include "synthetic_overhead.h"

namespace {

using namespace laps;

constexpr std::size_t kCores = 8;        // paper Table 2 platform
constexpr std::size_t kLayerWidth = 64;  // root layer / ready-front width
constexpr std::size_t kBand = 32;        // sharing band size
constexpr std::size_t kWindow = 256;     // target live-process count

struct DriveResult {
  std::uint64_t events = 0;     // policy callbacks issued (incl. picks)
  std::uint64_t decisions = 0;  // picks that returned a process
  std::uint64_t checksum = 0;   // FNV-1a over the dispatch sequence
  std::int64_t nanos = 0;       // wall time of the whole drive
};

/// Streams the workload through \p policy with the engine's event
/// protocol (see file comment). Deterministic for a deterministic
/// policy: arrival order is id order, one dispatch round per step.
DriveResult drive(SchedulerPolicy& policy, const Workload& workload,
                  const SharingMatrix& sharing, const AddressSpace& space) {
  const ExtendedProcessGraph& graph = workload.graph;
  const std::size_t n = graph.processCount();
  DriveResult out;
  std::uint64_t checksum = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&checksum](std::uint64_t value) {
    checksum ^= value;
    checksum *= 1099511628211ull;  // FNV-1a prime
  };

  const auto start = std::chrono::steady_clock::now();
  SchedContext context{&graph, &sharing, kCores, &workload, &space};
  policy.reset(context);

  std::vector<bool> arrived(n, false);
  std::vector<bool> completed(n, false);
  std::vector<std::optional<ProcessId>> previous(kCores);
  const auto depsDone = [&](ProcessId p) {
    for (const ProcessId pred : graph.predecessors(p)) {
      if (!completed[pred]) return false;
    }
    return true;
  };

  std::size_t nextArrival = 0;
  std::size_t liveCount = 0;
  std::size_t completedCount = 0;
  std::vector<ProcessId> ran;
  while (completedCount < n) {
    // Admit until the live window is full (or the workload is drained).
    while (nextArrival < n && liveCount < kWindow) {
      const auto p = static_cast<ProcessId>(nextArrival++);
      arrived[p] = true;
      ++liveCount;
      policy.onArrival(p);
      ++out.events;
      if (depsDone(p)) {
        policy.onReady(p);
        ++out.events;
      }
    }
    // One dispatch round: each core asks once.
    ran.clear();
    for (std::size_t core = 0; core < kCores; ++core) {
      const std::optional<ProcessId> pick =
          policy.pickNext(core, previous[core]);
      ++out.events;
      if (!pick) continue;
      ++out.decisions;
      mix(core);
      mix(*pick);
      previous[core] = *pick;
      ran.push_back(*pick);
    }
    check(!ran.empty(),
          "bench_policy_overhead: driver stalled (policy stranded work)");
    // Everything dispatched this round completes and exits: releases
    // successors, keeps the live count hovering at the window.
    for (const ProcessId p : ran) {
      policy.onComplete(p);
      policy.onExit(p);
      out.events += 2;
      completed[p] = true;
      ++completedCount;
      --liveCount;
      for (const ProcessId succ : graph.successors(p)) {
        if (arrived[succ] && !completed[succ] && depsDone(succ)) {
          policy.onReady(succ);
          ++out.events;
        }
      }
    }
  }
  const auto end = std::chrono::steady_clock::now();
  out.nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  out.checksum = checksum;
  return out;
}

struct Arm {
  std::string name;
  std::unique_ptr<SchedulerPolicy> policy;
};

std::vector<Arm> makeArms() {
  std::vector<Arm> arms;
  arms.push_back(Arm{"DLS", std::make_unique<DynamicLocalityScheduler>()});
  arms.push_back(
      Arm{"CALS", std::make_unique<L2ContentionAwareScheduler>()});
  arms.push_back(
      Arm{"OLS-idx", std::make_unique<OnlineLocalityScheduler>()});
  return arms;
}

void sweep(bool csv) {
  const std::vector<std::size_t> sizes{100, 1000, 4000};
  // The |T| column leads: check_shapes.py keys baseline rows on
  // (first column, scheduler), which must be unique per row.
  if (csv) {
    std::cout << "t,scheduler,cores,window,events,decisions,checksum,"
                 "elapsed_ns,decisions_per_sec,ns_per_event\n";
  }
  Table table({"Sched", "|T|", "Events", "Decisions", "Decisions/s",
               "ns/event"});
  for (const std::size_t n : sizes) {
    const Workload workload = synth::makeLayeredWorkload(n, kLayerWidth);
    const SharingMatrix sharing = synth::makeBandedSharing(n, kBand);
    const AddressSpace space(workload.arrays);
    for (Arm& arm : makeArms()) {
      const DriveResult r = drive(*arm.policy, workload, sharing, space);
      const std::int64_t nanos = r.nanos > 0 ? r.nanos : 1;
      const auto decisionsPerSec = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(r.decisions) * 1'000'000'000u) /
          static_cast<std::uint64_t>(nanos));
      const std::uint64_t nsPerEvent =
          r.events > 0 ? static_cast<std::uint64_t>(nanos) / r.events : 0;
      if (csv) {
        std::cout << n << ',' << arm.name << ',' << kCores << ','
                  << kWindow << ',' << r.events << ',' << r.decisions
                  << ',' << r.checksum << ',' << nanos << ','
                  << decisionsPerSec << ',' << nsPerEvent << '\n';
      } else {
        table.row()
            .cell(arm.name)
            .cell(n)
            .cell(r.events)
            .cell(r.decisions)
            .cell(decisionsPerSec)
            .cell(nsPerEvent);
      }
    }
  }
  if (!csv) {
    std::cout << "=== Scheduling-decision throughput (windowed driver, "
              << kCores << " cores, window " << kWindow << ") ===\n"
              << table.ascii() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      std::cerr << "usage: bench_policy_overhead [--csv]\n";
      return 2;
    }
  }
  sweep(csv);
  return 0;
}
