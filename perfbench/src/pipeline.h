#pragma once
/// \file pipeline.h
/// \brief The traced pipeline: runExperiment decomposed into the same
/// public calls, with a host timer around each layer.

#include <cstdint>
#include <span>
#include <vector>

#include "timed_policy.h"
#include "workloads.h"

namespace perfbench {

/// Host seconds spent in each layer of one traced pipeline run, and the
/// exact counts the layers returned.
struct LayerSplit {
  double footprintsSeconds = 0.0;
  /// The pipeline's sharing step: SharingMatrix::compute in closed mode
  /// and for LSM, the inactive placeholder otherwise.
  double sharingSeconds = 0.0;
  double planSeconds = 0.0;         ///< buildLocalityPlan (LSM only)
  double eligibilitySeconds = 0.0;  ///< scheduleEligibility (LSM only)
  double conflictSeconds = 0.0;     ///< conflict matrix (LSM only)
  double relayoutSeconds = 0.0;     ///< planRelayout + transforms (LSM only)
  double constructSeconds = 0.0;    ///< MpsocSimulator + provideFootprints
  double runSeconds = 0.0;          ///< MpsocSimulator::run
  double resetSeconds = 0.0;        ///< SchedulerPolicy::reset
  double pickSeconds = 0.0;         ///< SchedulerPolicy::pickNext
  double eventSeconds = 0.0;        ///< every other policy hook
  std::uint64_t pickCalls = 0;
  std::uint64_t eventCalls = 0;
  double presimSeconds = 0.0;    ///< pipeline start to the end of reset
  double pipelineSeconds = 0.0;  ///< the whole traced pipeline
  /// Off-diagonal sharing pairs with a non-zero cell in the full matrix
  /// (closed mode and LSM; 0 when the pipeline skips compute).
  std::uint64_t sharingNonzeroPairs = 0;
};

struct TracedRun {
  laps::ExperimentResult result;
  LayerSplit split;
  std::vector<laps::Footprint> footprints;
  std::vector<LiveSetEvent> liveSet;
};

/// Runs \p in through the decomposed pipeline. Its result must equal
/// runExperiment(in.workload, in.kind, in.config) field for field.
[[nodiscard]] TracedRun runTraced(const WorkloadInputs& in);

/// Replay of an open run's arrival/exit order through
/// SharingMatrix::addProcess/removeProcess.
struct SharingReplay {
  double seconds = 0.0;  ///< host time in addProcess/removeProcess only
  /// Non-zero off-diagonal cells each arrival's new row filled in.
  std::uint64_t nonzeroPairs = 0;
  /// The matrix agreed with the live set after every event, and with a
  /// direct recomputation of every live pair at the largest live set
  /// (checked only when requested).
  bool consistent = true;
};

[[nodiscard]] SharingReplay replaySharing(
    std::span<const laps::Footprint> footprints,
    std::span<const LiveSetEvent> events, bool checkPeakCells);

/// A 64-bit digest of every field of \p r, for identity checks across
/// iterations and between the traced and untraced pipelines.
[[nodiscard]] std::uint64_t digest(const laps::SimResult& r);

}  // namespace perfbench
