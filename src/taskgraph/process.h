#pragma once
/// \file process.h
/// \brief Processes: the schedulable units of the paper.
///
/// A task (application) is parallelized into processes (paper Fig. 1);
/// each process executes one or more affine loop nests. The process is
/// the unit the OS scheduler places on a core.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "region/access.h"
#include "region/array.h"
#include "region/footprint.h"
#include "region/iteration_space.h"

namespace laps {

/// Process identifier, unique within an ExtendedProcessGraph
/// (the paper's "unique id" convention for EPG nodes).
using ProcessId = std::uint32_t;

/// Task (application) identifier.
using TaskId = std::uint32_t;

/// Most loop nests one process may have: each nest of a task owns one of
/// the task's kMaxNestsPerProcess code-body slots (trace/cursor.h), so
/// a further nest would share instruction lines with the next task's
/// bodies. validateWorkload rejects processes with more.
inline constexpr std::size_t kMaxNestsPerProcess = 16;

/// One affine loop nest: every iteration performs the listed array
/// references plus \p computeCyclesPerIter cycles of pure computation.
struct LoopNest {
  IterationSpace space;
  std::vector<ArrayAccess> accesses;
  std::int64_t computeCyclesPerIter = 1;

  /// Memory references issued by the whole nest.
  [[nodiscard]] std::int64_t totalReferences() const {
    return space.numPoints() * static_cast<std::int64_t>(accesses.size());
  }
};

/// The static description of a process: identity plus behaviour.
struct ProcessSpec {
  ProcessId id = 0;
  TaskId task = 0;
  std::string name;
  std::vector<LoopNest> nests;

  [[nodiscard]] std::int64_t totalIterations() const;
  [[nodiscard]] std::int64_t totalReferences() const;
  [[nodiscard]] std::int64_t totalComputeCycles() const;

  /// A scheduler-visible duration estimate (used by SJF and critical-path
  /// extensions): compute cycles plus references costed at \p refLatency.
  [[nodiscard]] std::int64_t estimatedCycles(std::int64_t refLatency = 2) const;

  /// Exact element footprint over all nests (the paper's DS set).
  [[nodiscard]] Footprint footprint(const ArrayTable& arrays) const;
};

}  // namespace laps
