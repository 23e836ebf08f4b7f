#pragma once
/// \file experiment.h
/// \brief The experiment harness: one call from workload to metrics.
///
/// runExperiment wires the full pipeline of the paper:
///   footprints (§2) -> sharing matrix (§2) -> scheduler (§3, Fig. 3)
///   [-> conflict matrix + re-layout for LSM (§3, Figs. 4-5)]
///   -> MPSoC simulation (§4) -> execution time / cache / energy metrics.
///
/// This is the API the examples and every bench binary use.

#include <optional>
#include <span>
#include <vector>

#include "layout/relayout.h"
#include "sched/factory.h"
#include "sim/energy.h"
#include "sim/engine.h"
#include "workloads/apps.h"

namespace laps {

/// Full experiment configuration; defaults reproduce the paper's Table 2
/// platform.
struct ExperimentConfig {
  MpsocConfig mpsoc{};                ///< 8 cores, 8KB 2-way L1s, 75-cycle mem
  SchedulerParams sched{};            ///< RRS quantum, RS seed, LS options
  AddressSpaceOptions addressSpace{}; ///< array placement
  EnergyModel energy{};               ///< energy accounting
  /// Override for the LSM re-layout threshold T (default: mean conflicts,
  /// as in the paper). Must be >= 0; runExperiment rejects a negative
  /// value up front.
  std::optional<std::int64_t> relayoutThreshold;
};

/// Metrics of one (workload, scheduler) run.
struct ExperimentResult {
  SchedulerKind kind = SchedulerKind::Random;
  std::string schedulerName;
  SimResult sim;
  // LINT-ALLOW(no-float): post-hoc energy readout (sim/energy); never re-enters the model
  double energyMj = 0.0;
  /// LSM only: how many arrays were re-laid out and the threshold used.
  std::size_t relayoutedArrays = 0;
  std::int64_t relayoutThreshold = 0;
};

/// Runs \p workload under \p kind on the configured platform.
/// For SchedulerKind::LocalityMapping the Fig. 5 re-layout pipeline is
/// applied to the address space before simulation.
[[nodiscard]] ExperimentResult runExperiment(const Workload& workload,
                                             SchedulerKind kind,
                                             const ExperimentConfig& config = {});

/// LSM's re-layout step (§3, Figs. 4-5), exactly as runExperiment runs
/// it: builds the LS plan, derives the eligibility relation and the
/// conflict matrix under \p space, selects the arrays to re-lay out and
/// installs their transforms into \p space. Returns the selection.
RelayoutPlan applyLsmRelayout(const Workload& workload,
                              const std::vector<Footprint>& footprints,
                              const SharingMatrix& sharing,
                              const ExperimentConfig& config,
                              AddressSpace& space);

/// Convenience: runs the same workload under several schedulers.
[[nodiscard]] std::vector<ExperimentResult> compareSchedulers(
    const Workload& workload, std::span<const SchedulerKind> kinds,
    const ExperimentConfig& config = {});

/// The paper's evaluation set {RS, RRS, LS, LSM} in presentation order.
[[nodiscard]] std::vector<SchedulerKind> paperSchedulers();

/// The policies that make sense under an open workload (no static
/// whole-set plan): {RS, RRS, DLS, CALS, OLS} — the set
/// bench_open_workload sweeps.
[[nodiscard]] std::vector<SchedulerKind> openSchedulers();

}  // namespace laps
