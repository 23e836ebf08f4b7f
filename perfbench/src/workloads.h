#pragma once
/// \file workloads.h
/// \brief The benchmark's named workloads: seeded generators of the
/// inputs one runExperiment call receives.
///
/// Why each workload exists, and which layer it stresses, is recorded in
/// perfbench/WORKLOADS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "core/laps.h"

namespace perfbench {

/// The seed at which the committed baselines were produced. Only runs at
/// this seed are cross-checked against bench/baselines/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Everything one runExperiment call takes.
struct WorkloadInputs {
  laps::Workload workload;
  laps::SchedulerKind kind = laps::SchedulerKind::Random;
  laps::ExperimentConfig config;
};

/// A named workload. One run of it simulates `instances` independent
/// inputs, generated from instanceSeed(seed, 0..instances-1), and pools
/// their simulated metrics: a single input's tail latency moves by tens
/// of percent from seed to seed, the pooled figure does not.
struct WorkloadSpec {
  std::string name;
  std::size_t instances = 1;
  /// Generates one input from its seed: the same seed, the same input.
  WorkloadInputs (*generate)(std::uint64_t seed) = nullptr;
  /// Generates the configuration of the committed bench/baselines row
  /// this workload derives from (null when there is none). Run at
  /// kDefaultSeed, it must reproduce that row exactly.
  WorkloadInputs (*committed)(std::uint64_t seed) = nullptr;
};

/// Every workload, in presentation order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// The seed of instance \p k of a run at \p seed. Instance 0 uses the
/// run's seed itself.
[[nodiscard]] std::uint64_t instanceSeed(std::uint64_t seed, std::size_t k);

}  // namespace perfbench
