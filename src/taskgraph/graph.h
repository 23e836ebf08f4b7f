#pragma once
/// \file graph.h
/// \brief The extended process graph (EPG) of paper §3.
///
/// Nodes are processes; a directed edge P -> Q means Q may start only
/// after P completes. Edges may cross task boundaries (inter-task
/// dependences), which is what makes the graph "extended".

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "taskgraph/process.h"

namespace laps {

/// DAG of processes with dependence edges. Process ids are dense indices
/// assigned by addProcess in insertion order.
class ExtendedProcessGraph {
 public:
  /// Adds a process; its `id` field is overwritten with the assigned id.
  ProcessId addProcess(ProcessSpec spec);

  /// Declares that \p to depends on \p from (from must finish first).
  /// Rejects self-edges and unknown ids; duplicate edges are ignored.
  void addDependence(ProcessId from, ProcessId to);

  [[nodiscard]] std::size_t processCount() const { return processes_.size(); }
  [[nodiscard]] const ProcessSpec& process(ProcessId id) const;
  [[nodiscard]] const std::vector<ProcessSpec>& processes() const {
    return processes_;
  }

  [[nodiscard]] const std::vector<ProcessId>& predecessors(ProcessId id) const;
  [[nodiscard]] const std::vector<ProcessId>& successors(ProcessId id) const;

  /// Processes with no incoming dependence edge — the paper's IN set.
  [[nodiscard]] std::vector<ProcessId> roots() const;

  /// All processes belonging to \p task.
  [[nodiscard]] std::vector<ProcessId> processesOfTask(TaskId task) const;

  /// Distinct task ids present, in first-appearance order.
  [[nodiscard]] std::vector<TaskId> tasks() const;

  /// Number of dependence edges.
  [[nodiscard]] std::size_t edgeCount() const { return edgeCount_; }

  /// Topological order; throws laps::Error if the graph has a cycle.
  [[nodiscard]] std::vector<ProcessId> topologicalOrder() const;

  /// True when the graph is acyclic. Memoized: replanning policies ask
  /// on every rebuild, and the answer only changes when an edge is
  /// added (a new process cannot close a cycle), so addDependence is
  /// the sole invalidation point.
  [[nodiscard]] bool isAcyclic() const;

  /// True when \p order contains every process exactly once and never
  /// places a process before one of its predecessors.
  [[nodiscard]] bool respectsDependences(const std::vector<ProcessId>& order) const;

  /// Length (in estimatedCycles) of the longest dependence chain ending
  /// at each process — the upward rank used by the critical-path
  /// scheduler extension.
  [[nodiscard]] std::vector<std::int64_t> criticalPathCycles() const;

  /// Exact per-process footprints (paper's DS sets), each equal to
  /// ProcessSpec::footprint. Enumerated once per process shape — the
  /// loop dims, linearized accesses and first-appearance array numbers
  /// of a process — and copied under renamed array ids to the other
  /// processes of the shape, so the cost follows the distinct shapes
  /// (165 among the 1320 processes of the Fig. 7 mix at |T| = 48), not
  /// the process count. Bit-identical at every thread count.
  [[nodiscard]] std::vector<Footprint> footprints(const ArrayTable& arrays) const;

  /// Graphviz dot rendering (node label = name, cluster per task).
  [[nodiscard]] std::string toDot() const;

 private:
  void checkId(ProcessId id) const;

  std::vector<ProcessSpec> processes_;
  std::vector<std::vector<ProcessId>> preds_;
  std::vector<std::vector<ProcessId>> succs_;
  std::size_t edgeCount_ = 0;
  /// isAcyclic() memo; nullopt = not computed since the last edge.
  mutable std::optional<bool> acyclic_;
};

/// A complete schedulable problem instance: the arrays of all resident
/// applications plus their merged process graph.
struct Workload {
  ArrayTable arrays;
  ExtendedProcessGraph graph;

  /// Convenience: per-process footprints.
  [[nodiscard]] std::vector<Footprint> footprints() const {
    return graph.footprints(arrays);
  }
};

}  // namespace laps
