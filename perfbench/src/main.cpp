/// \file main.cpp
/// \brief lapsched end-to-end benchmark: one workload per process.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Generates the workload's inputs (one per instance seed), then calls
/// runExperiment on them round robin for the time budget, repeating the
/// set-up and the host-speed kernel between calls. Untraced (--trace 0)
/// reports the end-to-end metrics; traced (--trace 1) pairs every call
/// with the decomposed pipeline of pipeline.h and reports the per-layer
/// split. Host times are at reference speed (host_speed.h); simulated
/// figures are exact.
///
/// Prints one JSON context line, then the result line
/// {"correct", "attempted", "failed", "metrics"} last. perfbench/WORKLOADS.md
/// defines every metric.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "pipeline.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace {

using namespace laps;
using perfbench::Clock;
using perfbench::secondsBetween;

/// Simulations are single-threaded; the pool only serves set-up. One
/// thread keeps set-up free of scheduling jitter on a shared host.
constexpr std::size_t kPoolThreads = 1;
/// glibc's own static default for both thresholds.
constexpr int kMallocThresholdBytes = 128 * 1024;
/// Between two calls, the host-speed kernel and the repeated set-up each
/// run for about this share of the call before them, at least once.
constexpr double kSideShare = 0.05;

struct Options {
  const perfbench::WorkloadSpec* spec = nullptr;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:";
  for (const perfbench::WorkloadSpec& w : perfbench::workloads()) {
    std::cerr << ' ' << w.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const perfbench::WorkloadSpec& w : perfbench::workloads()) {
        if (w.name == value) o.spec = &w;
      }
      if (o.spec == nullptr) usage("unknown workload " + value);
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.spec == nullptr) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Metrics in insertion order, printed as {"name": {"value", "unit"}}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream s;
    s.precision(17);
    s << value;
    entries_.push_back({name, s.str(), unit});
  }
  void add(const std::string& name, std::uint64_t value,
           const std::string& unit) {
    entries_.push_back({name, std::to_string(value), unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + e.value +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    std::string value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Departure accounting of one run, counted from the per-process
/// records rather than from the engine's own totals.
struct Departures {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retired = 0;
  std::uint64_t failed = 0;
  bool conserved = false;
};

Departures departures(const SimResult& r) {
  Departures d;
  bool exclusive = true;
  for (const ProcessRunRecord& p : r.processes) {
    const int flags = int{p.rejected} + int{p.retired} + int{p.failed};
    exclusive = exclusive && flags <= 1;
    d.rejected += p.rejected;
    d.retired += p.retired;
    d.failed += p.failed;
    d.completed += flags == 0 && p.completionCycle >= 0;
  }
  d.conserved = exclusive &&
                d.completed + d.rejected + d.retired + d.failed ==
                    r.processes.size() &&
                d.rejected == r.rejectedProcesses &&
                d.retired == r.retiredProcesses &&
                d.failed == r.faults.failedProcesses;
  return d;
}

/// The samples the sojourn percentiles rank. Open runs: exit minus
/// arrival cycle of every process that was neither rejected nor failed,
/// as the engine defines SimResult::sojourn. Closed runs record no
/// sojourn, so there they are the process completion cycles.
std::vector<std::int64_t> sojournSamples(const SimResult& r, bool open) {
  std::vector<std::int64_t> samples;
  for (const ProcessRunRecord& p : r.processes) {
    if (open && !p.rejected && !p.failed) {
      samples.push_back(p.completionCycle - p.arrivalCycle);
    } else if (!open && p.completionCycle >= 0) {
      samples.push_back(p.completionCycle);
    }
  }
  return samples;
}

SojournPercentiles percentiles(const std::vector<std::int64_t>& samples) {
  SojournPercentiles s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentileNearestRank(samples, 50);
  s.p95 = percentileNearestRank(samples, 95);
  s.p99 = percentileNearestRank(samples, 99);
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident MiB of the process, less \p excludedBytes that the
/// benchmark itself keeps resident throughout.
double peakRssMb(std::size_t excludedBytes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double kib = static_cast<double>(usage.ru_maxrss);
  return (kib - static_cast<double>(excludedBytes) / 1024.0) / 1024.0;
}

bool sameExperiment(const ExperimentResult& a, const ExperimentResult& b) {
  return perfbench::digest(a.sim) == perfbench::digest(b.sim) &&
         a.schedulerName == b.schedulerName &&
         a.relayoutedArrays == b.relayoutedArrays &&
         a.relayoutThreshold == b.relayoutThreshold;
}

/// One generated input of the run and everything measured on it.
struct Instance {
  perfbench::WorkloadInputs inputs;
  std::vector<double> wall;  ///< host seconds of each untraced call
  std::optional<ExperimentResult> first;
};

/// Host seconds of each set-up repetition.
struct SetupTimes {
  std::vector<double> setup;     ///< pool + every instance
  std::vector<double> generate;  ///< one instance, on average
};

/// Sets the pool up and (re)generates the inputs of every instance in
/// place, recording the time taken in \p times. Earlier inputs are freed
/// first, untimed: one copy of the inputs is ever alive, so repeated
/// set-ups leave peak_rss_mb alone. The inputs are the same every time.
void setUp(const perfbench::WorkloadSpec& spec, std::uint64_t seed,
           std::vector<Instance>& instances, SetupTimes& times) {
  for (Instance& inst : instances) inst.inputs = {};
  const Clock::time_point t0 = Clock::now();
  setParallelThreadCount(kPoolThreads);
  const Clock::time_point t1 = Clock::now();
  for (std::size_t k = 0; k < instances.size(); ++k) {
    instances[k].inputs = spec.generate(perfbench::instanceSeed(seed, k));
  }
  const Clock::time_point t2 = Clock::now();
  times.setup.push_back(secondsBetween(t0, t2));
  times.generate.push_back(secondsBetween(t1, t2) /
                           static_cast<double>(instances.size()));
}

/// True while another loop step of typical length still fits the budget.
bool budgetLeft(Clock::time_point begin, double budget,
                const std::vector<double>& steps) {
  return secondsBetween(begin, Clock::now()) + median(steps) <= budget;
}

/// The run's correctness verdict and operation counts.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected, retired or crash-failed
  bool conserved = true;
  bool identical = true;
  bool sojournAgrees = true;
  bool replayConsistent = true;

  [[nodiscard]] bool correct() const {
    return conserved && identical && sojournAgrees && replayConsistent;
  }

  /// Books one call's result against instance \p inst.
  void record(Instance& inst, const ExperimentResult& r) {
    const Departures d = departures(r.sim);
    attempted += r.sim.processes.size();
    failed += d.rejected + d.retired + d.failed;
    conserved = conserved && d.conserved;
    if (inst.first) {
      identical = identical && sameExperiment(r, *inst.first);
      return;
    }
    if (inst.inputs.config.mpsoc.arrivals) {
      const SojournPercentiles own =
          percentiles(sojournSamples(r.sim, /*open=*/true));
      const SojournPercentiles& engine = r.sim.sojourn;
      sojournAgrees = sojournAgrees && own.samples == engine.samples &&
                      own.p50 == engine.p50 && own.p95 == engine.p95 &&
                      own.p99 == engine.p99;
    }
    inst.first = r;
  }
};

/// End-to-end metrics. Host times: the median over every timed call,
/// scaled to reference speed by \p toReference. Simulated figures: the median
/// over inputs of each input's exact value, so one input with an unlucky
/// burst moves them no more than any other; goodput pools every process.
void addEndToEndMetrics(Metrics& m, const std::vector<Instance>& instances,
                        const SetupTimes& setup, double toReference,
                        std::size_t excludedBytes) {
  std::vector<double> walls, mrefsPerSecond, makespans, p50s, p95s, p99s,
      misses;
  std::uint64_t processes = 0;
  std::uint64_t completed = 0;
  for (const Instance& inst : instances) {
    const SimResult& r = inst.first->sim;
    for (const double wall : inst.wall) {
      walls.push_back(wall);
      mrefsPerSecond.push_back(static_cast<double>(r.dataReferences()) /
                               wall / 1e6);
    }
    makespans.push_back(static_cast<double>(r.makespanCycles));
    misses.push_back(static_cast<double>(r.dcacheTotal.misses));
    const SojournPercentiles s = percentiles(
        sojournSamples(r, inst.inputs.config.mpsoc.arrivals.has_value()));
    p50s.push_back(static_cast<double>(s.p50));
    p95s.push_back(static_cast<double>(s.p95));
    p99s.push_back(static_cast<double>(s.p99));
    processes += r.processes.size();
    completed += departures(r).completed;
  }
  m.add("wall_s", median(walls) * toReference, "s");
  m.add("sim_mrefs_per_s", median(mrefsPerSecond) / toReference, "Mref/s");
  m.add("setup_s", median(setup.setup) * toReference, "s");
  m.add("peak_rss_mb", peakRssMb(excludedBytes), "MB");
  m.add("makespan_cycles", median(makespans), "cycles");
  m.add("sojourn_p50_cycles", median(p50s), "cycles");
  m.add("sojourn_p95_cycles", median(p95s), "cycles");
  m.add("sojourn_p99_cycles", median(p99s), "cycles");
  m.add("dcache_misses", median(misses), "count");
  m.add("goodput_permille",
        1000.0 * static_cast<double>(completed) / static_cast<double>(processes),
        "permille");
}

/// Per-layer metrics: host times are medians over the traced runs,
/// scaled to reference speed by \p toReference; counts come from the first
/// traced run (instance 0).
void addLayerMetrics(Metrics& m, const perfbench::WorkloadInputs& in,
                     const std::vector<perfbench::TracedRun>& runs,
                     const std::vector<perfbench::SharingReplay>& replays,
                     const std::vector<double>& generateSeconds,
                     const std::vector<double>& overheadRatios,
                     double toReference) {
  const auto plain = [&](auto field) {
    std::vector<double> v;
    for (const perfbench::TracedRun& t : runs) v.push_back(field(t.split));
    return median(v);
  };
  const auto med = [&](auto field) { return plain(field) * toReference; };
  const perfbench::TracedRun& first = runs.front();
  const SimResult& r = first.result.sim;
  const perfbench::LayerSplit& s = first.split;
  const auto hooks = [](const perfbench::LayerSplit& l) {
    return l.resetSeconds + l.pickSeconds + l.eventSeconds;
  };
  std::vector<double> incremental;
  for (const perfbench::SharingReplay& rep : replays) {
    incremental.push_back(rep.seconds);
  }

  m.add("workloads.generate_s", median(generateSeconds) * toReference, "s");

  m.add("region.footprints_s", med([](auto& l) { return l.footprintsSeconds; }),
        "s");
  m.add("region.sharing_compute_s",
        med([](auto& l) { return l.sharingSeconds; }), "s");
  m.add("region.sharing_incremental_s",
        incremental.empty() ? 0.0 : median(incremental) * toReference, "s");
  m.add("region.sharing_nonzero_pairs",
        replays.empty() ? s.sharingNonzeroPairs : replays.front().nonzeroPairs,
        "count");

  m.add("sched.reset_s", med([](auto& l) { return l.resetSeconds; }), "s");
  m.add("sched.pick_s", med([](auto& l) { return l.pickSeconds; }), "s");
  m.add("sched.pick_calls", s.pickCalls, "count");
  m.add("sched.event_s", med([](auto& l) { return l.eventSeconds; }), "s");
  m.add("sched.event_calls", s.eventCalls, "count");
  m.add("sched.share_permille",
        plain([&](auto& l) { return 1000.0 * hooks(l) / l.runSeconds; }),
        "permille");
  m.add("sched.plan_s", med([](auto& l) { return l.planSeconds; }), "s");
  m.add("sched.decisions", r.policy.decisions, "count");
  m.add("sched.rebuilds", r.policy.rebuilds, "count");
  m.add("sched.patches", r.policy.patches, "count");
  m.add("sched.steals", r.policy.steals, "count");
  m.add("sched.offloads", r.policy.offloads, "count");

  m.add("layout.eligibility_s",
        med([](auto& l) { return l.eligibilitySeconds; }), "s");
  m.add("layout.conflict_s", med([](auto& l) { return l.conflictSeconds; }),
        "s");
  m.add("layout.relayout_s", med([](auto& l) { return l.relayoutSeconds; }),
        "s");
  m.add("layout.relayouted_arrays",
        static_cast<std::uint64_t>(first.result.relayoutedArrays), "count");
  m.add("layout.arrays", static_cast<std::uint64_t>(in.workload.arrays.size()),
        "count");

  const double selfSeconds =
      med([&](auto& l) { return l.runSeconds - hooks(l); });
  std::uint64_t segments = 0;
  for (const ProcessRunRecord& p : r.processes) segments += p.segments;
  m.add("sim.construct_s", med([](auto& l) { return l.constructSeconds; }),
        "s");
  m.add("sim.run_s", med([](auto& l) { return l.runSeconds; }), "s");
  m.add("sim.self_s", selfSeconds, "s");
  m.add("sim.self_ns_per_ref",
        selfSeconds * 1e9 / static_cast<double>(r.dataReferences()), "ns");
  m.add("sim.data_refs", r.dataReferences(), "count");
  m.add("sim.segments", segments, "count");
  m.add("sim.context_switches", r.contextSwitches, "count");
  m.add("sim.preemptions", r.preemptions, "count");
  m.add("sim.migrations", r.migrations, "count");
  m.add("sim.switch_overhead_cycles", r.switchOverheadCycles, "cycles");
  m.add("sim.utilization_permille", 1000.0 * r.utilization(), "permille");
  m.add("sim.rejected", r.rejectedProcesses, "count");
  m.add("sim.retired", r.retiredProcesses, "count");
  m.add("sim.faults.crashes", r.faults.processCrashes, "count");
  m.add("sim.faults.retries", r.faults.retriesScheduled, "count");
  m.add("sim.faults.failed", r.faults.failedProcesses, "count");
  m.add("sim.faults.outages", r.faults.coreOutages, "count");
  m.add("sim.faults.core_down_cycles", r.faults.coreDownCycles, "cycles");
  m.add("sim.faults.migration_penalty_cycles",
        r.faults.migrationPenaltyCycles, "cycles");

  m.add("cache.icache_misses", r.icacheTotal.misses, "count");
  m.add("cache.l2_accesses", r.l2Total.accesses, "count");
  m.add("cache.l2_misses", r.l2Total.misses, "count");
  m.add("cache.l2_bank_wait_cycles", r.l2BankWaitCycles, "cycles");
  m.add("cache.bus_transactions", r.busTransactions, "count");
  m.add("cache.bus_wait_cycles", r.busWaitCycles, "cycles");
  m.add("cache.noc_transfers", r.nocTransfers, "count");
  m.add("cache.noc_hop_cycles", r.nocHopCycles, "cycles");
  m.add("cache.noc_link_wait_cycles", r.nocLinkWaitCycles, "cycles");
  m.add("cache.noc_migration_penalty_cycles", r.nocMigrationPenaltyCycles,
        "cycles");
  m.add("cache.dir_inv_sent", r.directoryInvalidationsSent, "count");
  m.add("cache.dir_inv_filtered", r.directoryInvalidationsFiltered, "count");

  m.add("core.presim_s", med([](auto& l) { return l.presimSeconds; }), "s");
  m.add("core.trace_overhead_permille",
        1000.0 * (median(overheadRatios) - 1.0), "permille");
}

/// The figures compared with a committed bench/baselines row.
void printFigures(std::ostream& out, const SimResult& r, bool open) {
  const SojournPercentiles s = percentiles(sojournSamples(r, open));
  out << "{\"makespan_cycles\": " << r.makespanCycles
      << ", \"dcache_misses\": " << r.dcacheTotal.misses
      << ", \"sojourn_p50_cycles\": " << s.p50
      << ", \"sojourn_p95_cycles\": " << s.p95
      << ", \"sojourn_p99_cycles\": " << s.p99 << ", \"sim_digest\": \""
      << hex(perfbench::digest(r)) << "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Fixed malloc thresholds turn off glibc's history-dependent dynamic
  // mmap threshold: freed blocks of the per-call sharing matrices then
  // go back to the system instead of staying resident, so peak_rss_mb
  // measures what a call needs, not what earlier calls left behind.
  mallopt(M_MMAP_THRESHOLD, kMallocThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kMallocThresholdBytes);
  const perfbench::WorkloadSpec& spec = *o.spec;
  perfbench::HostSpeed speed;
  std::vector<double> kernelSeconds{speed.measure()};

  const Clock::time_point begin = Clock::now();
  SetupTimes setup;
  std::vector<Instance> instances(spec.instances);
  setUp(spec, o.seed, instances, setup);
  const std::size_t count = instances.size();

  Ledger ledger;
  // One untimed call first, so that a fresh process's lazy costs
  // (first-touch page faults, cold host caches) stay out of the timed
  // calls; on the development host the first calls ran about 10% slow.
  // Its result is the reference instance 0's timed calls must match.
  {
    Instance& warm = instances.front();
    ledger.record(warm, runExperiment(warm.inputs.workload, warm.inputs.kind,
                                      warm.inputs.config));
  }
  std::vector<double> steps;  // host seconds of each loop step
  std::vector<perfbench::TracedRun> tracedRuns;
  std::vector<perfbench::SharingReplay> replays;
  std::vector<double> overheadRatios;
  // Untraced runs simulate every instance at least once; traced runs
  // need two steps for a median. Both then continue, round robin over
  // the instances, while the time budget lasts.
  const std::size_t minimumSteps = o.trace ? 2 : count;
  for (std::size_t step = 0;
       step < minimumSteps || budgetLeft(begin, o.seconds, steps); ++step) {
    Instance& inst = instances[step % count];
    const perfbench::WorkloadInputs& in = inst.inputs;
    const Clock::time_point t0 = Clock::now();
    const ExperimentResult r = runExperiment(in.workload, in.kind, in.config);
    const double wall = secondsBetween(t0, Clock::now());
    inst.wall.push_back(wall);
    ledger.record(inst, r);
    if (o.trace) {
      perfbench::TracedRun traced = perfbench::runTraced(in);
      ledger.record(inst, traced.result);
      overheadRatios.push_back(traced.split.pipelineSeconds / wall);
      if (in.config.mpsoc.arrivals) {
        replays.push_back(perfbench::replaySharing(
            traced.footprints, traced.liveSet, replays.empty()));
        ledger.replayConsistent =
            ledger.replayConsistent && replays.back().consistent;
      }
      traced.footprints.clear();
      traced.liveSet.clear();
      tracedRuns.push_back(std::move(traced));
    }
    // The kernel and the set-up are repeated between calls, so their
    // medians sample the same spells of host speed as the calls do.
    const auto repeats = [&](const std::vector<double>& seconds) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(kSideShare * wall / median(seconds)));
    };
    const std::size_t kernels = repeats(kernelSeconds);
    const std::size_t setups = repeats(setup.setup);
    for (std::size_t i = 0; i < std::max(kernels, setups); ++i) {
      if (i < kernels) kernelSeconds.push_back(speed.measure());
      if (i < setups) setUp(spec, o.seed, instances, setup);
    }
    steps.push_back(secondsBetween(t0, Clock::now()));
  }

  // Host seconds to reference-speed seconds, for every host time of the run.
  const double toReference =
      perfbench::kReferenceKernelSeconds / median(kernelSeconds);
  Metrics m;
  if (o.trace) {
    addLayerMetrics(m, instances.front().inputs, tracedRuns, replays,
                    setup.generate, overheadRatios, toReference);
  } else {
    addEndToEndMetrics(m, instances, setup, toReference, speed.residentBytes());
  }

  std::size_t minCalls = instances.front().wall.size();
  std::size_t minSojournSamples = std::numeric_limits<std::size_t>::max();
  std::vector<double> hostWalls;
  for (const Instance& inst : instances) {
    minCalls = std::min(minCalls, inst.wall.size());
    minSojournSamples = std::min(
        minSojournSamples,
        sojournSamples(inst.first->sim,
                       inst.inputs.config.mpsoc.arrivals.has_value())
            .size());
    hostWalls.insert(hostWalls.end(), inst.wall.begin(), inst.wall.end());
  }
  std::cout << std::boolalpha << "{\"context\": {\"workload\": \"" << spec.name
            << "\", \"seed\": " << o.seed << ", \"trace\": " << o.trace
            << ", \"num_cpus\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << parallelThreadCount()
            << ", \"instances\": " << count
            << ", \"untraced_calls\": " << steps.size()
            << ", \"min_calls_per_instance\": " << minCalls
            << ", \"min_sojourn_samples_per_instance\": " << minSojournSamples
            << ", \"traced_calls\": " << tracedRuns.size()
            << ", \"setup_repetitions\": " << setup.setup.size()
            << ", \"host_wall_s\": " << median(hostWalls)
            << ", \"kernel_s\": " << median(kernelSeconds)
            << ", \"kernel_samples\": " << kernelSeconds.size()
            << ", \"reference_kernel_s\": " << perfbench::kReferenceKernelSeconds
            << ", \"conserved\": " << ledger.conserved
            << ", \"iterations_identical\": " << ledger.identical
            << ", \"sojourn_agrees\": " << ledger.sojournAgrees
            << ", \"sharing_replay_consistent\": " << ledger.replayConsistent;
  // At the default seed, the committed configuration's figures; run.py
  // compares them with its bench/baselines row.
  if (o.seed == perfbench::kDefaultSeed && spec.committed != nullptr) {
    const perfbench::WorkloadInputs in = spec.committed(o.seed);
    std::cout << ", \"committed_point\": ";
    printFigures(std::cout, runExperiment(in.workload, in.kind, in.config).sim,
                 in.config.mpsoc.arrivals.has_value());
  }
  std::cout << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\""
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}}\n";
  const bool correct = ledger.correct();
  std::cout << "{\"correct\": " << correct
            << ", \"attempted\": " << ledger.attempted
            << ", \"failed\": " << (correct ? ledger.failed : ledger.attempted)
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}
