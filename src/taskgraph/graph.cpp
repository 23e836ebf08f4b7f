#include "taskgraph/graph.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.h"
#include "util/parallel.h"

namespace laps {

ProcessId ExtendedProcessGraph::addProcess(ProcessSpec spec) {
  const auto id = static_cast<ProcessId>(processes_.size());
  spec.id = id;
  processes_.push_back(std::move(spec));
  preds_.emplace_back();
  succs_.emplace_back();
  return id;
}

void ExtendedProcessGraph::checkId(ProcessId id) const {
  check(id < processes_.size(), "ExtendedProcessGraph: unknown process id");
}

void ExtendedProcessGraph::addDependence(ProcessId from, ProcessId to) {
  checkId(from);
  checkId(to);
  check(from != to, "ExtendedProcessGraph: self-dependence not allowed");
  auto& succ = succs_[from];
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) {
    return;  // duplicate edge
  }
  succ.push_back(to);
  preds_[to].push_back(from);
  ++edgeCount_;
  acyclic_.reset();  // the new edge may have closed a cycle
}

const ProcessSpec& ExtendedProcessGraph::process(ProcessId id) const {
  checkId(id);
  return processes_[id];
}

const std::vector<ProcessId>& ExtendedProcessGraph::predecessors(
    ProcessId id) const {
  checkId(id);
  return preds_[id];
}

const std::vector<ProcessId>& ExtendedProcessGraph::successors(
    ProcessId id) const {
  checkId(id);
  return succs_[id];
}

std::vector<ProcessId> ExtendedProcessGraph::roots() const {
  std::vector<ProcessId> out;
  for (ProcessId id = 0; id < processes_.size(); ++id) {
    if (preds_[id].empty()) out.push_back(id);
  }
  return out;
}

std::vector<ProcessId> ExtendedProcessGraph::processesOfTask(TaskId task) const {
  std::vector<ProcessId> out;
  for (const auto& p : processes_) {
    if (p.task == task) out.push_back(p.id);
  }
  return out;
}

std::vector<TaskId> ExtendedProcessGraph::tasks() const {
  std::vector<TaskId> out;
  for (const auto& p : processes_) {
    if (std::find(out.begin(), out.end(), p.task) == out.end()) {
      out.push_back(p.task);
    }
  }
  return out;
}

std::vector<ProcessId> ExtendedProcessGraph::topologicalOrder() const {
  std::vector<std::size_t> remaining(processes_.size());
  std::vector<ProcessId> ready;
  for (ProcessId id = 0; id < processes_.size(); ++id) {
    remaining[id] = preds_[id].size();
    if (remaining[id] == 0) ready.push_back(id);
  }
  std::vector<ProcessId> order;
  order.reserve(processes_.size());
  // Kahn's algorithm; FIFO over `ready` keeps the order stable.
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const ProcessId id = ready[head];
    order.push_back(id);
    for (const ProcessId succ : succs_[id]) {
      if (--remaining[succ] == 0) ready.push_back(succ);
    }
  }
  check(order.size() == processes_.size(),
        "ExtendedProcessGraph: dependence cycle detected");
  return order;
}

bool ExtendedProcessGraph::isAcyclic() const {
  if (!acyclic_) {
    try {
      (void)topologicalOrder();
      acyclic_ = true;
    } catch (const Error&) {
      acyclic_ = false;
    }
  }
  return *acyclic_;
}

bool ExtendedProcessGraph::respectsDependences(
    const std::vector<ProcessId>& order) const {
  if (order.size() != processes_.size()) return false;
  std::vector<std::int64_t> position(processes_.size(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= processes_.size()) return false;
    if (position[order[i]] != -1) return false;  // duplicate
    position[order[i]] = static_cast<std::int64_t>(i);
  }
  for (ProcessId id = 0; id < processes_.size(); ++id) {
    for (const ProcessId pred : preds_[id]) {
      if (position[pred] > position[id]) return false;
    }
  }
  return true;
}

std::vector<std::int64_t> ExtendedProcessGraph::criticalPathCycles() const {
  const std::vector<ProcessId> order = topologicalOrder();
  std::vector<std::int64_t> longest(processes_.size(), 0);
  // Process in reverse topological order: longest[p] = cost(p) + max(succ).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ProcessId id = *it;
    std::int64_t tail = 0;
    for (const ProcessId succ : succs_[id]) {
      tail = std::max(tail, longest[succ]);
    }
    longest[id] = processes_[id].estimatedCycles() + tail;
  }
  return longest;
}

namespace {

/// Everything a process's footprint depends on, up to array renaming:
/// per nest its dims (lo, hi, step), per access its linearized address
/// (coefficients and constant) and its array numbered by first
/// appearance in the process. An empty nest contributes nothing, so
/// its accesses keep only their array numbers.
struct ProcessShape {
  std::vector<std::int64_t> key;
  std::vector<ArrayId> arrays;  ///< the process's arrays, by local number
};

ProcessShape shapeOf(const ProcessSpec& process, const ArrayTable& arrays) {
  ProcessShape shape;
  std::vector<std::int64_t>& key = shape.key;
  key.push_back(static_cast<std::int64_t>(process.nests.size()));
  for (const LoopNest& nest : process.nests) {
    key.push_back(static_cast<std::int64_t>(nest.space.rank()));
    for (const LoopDim& dim : nest.space.dims()) {
      key.insert(key.end(), {dim.lo, dim.hi, dim.step});
    }
    key.push_back(static_cast<std::int64_t>(nest.accesses.size()));
    for (const ArrayAccess& access : nest.accesses) {
      const ArrayInfo& info = arrays.at(access.array);
      const auto local = static_cast<std::size_t>(
          std::find(shape.arrays.begin(), shape.arrays.end(), access.array) -
          shape.arrays.begin());
      if (local == shape.arrays.size()) shape.arrays.push_back(access.array);
      key.push_back(static_cast<std::int64_t>(local));
      if (nest.space.empty()) continue;
      key.push_back(0);  // the rank, ahead of the terms
      const std::size_t rankAt = key.size() - 1;
      key[rankAt] = static_cast<std::int64_t>(appendLinearized(access, info, key));
    }
  }
  return shape;
}

}  // namespace

std::vector<Footprint> ExtendedProcessGraph::footprints(
    const ArrayTable& arrays) const {
  // A footprint is a pure function of its process's shape (shapeOf)
  // and the array ids it names, so each distinct shape is enumerated
  // once, by its first process, and every other process of the shape
  // copies that footprint under its own array ids — exactly what its
  // own enumeration would produce. Shapes are numbered in an ordered
  // map, and each index of both parallel regions writes only its own
  // footprint (the copies read finished reps), so the result is
  // bit-identical to the serial per-process loop at any thread count.
  const std::size_t n = processes_.size();
  const std::vector<ProcessShape> shapes = parallelMap<ProcessShape>(
      n, [&](std::size_t i) { return shapeOf(processes_[i], arrays); });
  // The shape set holds process indices, ordered by their keys.
  const auto byKey = [&shapes](std::size_t a, std::size_t b) {
    return shapes[a].key < shapes[b].key;
  };
  std::set<std::size_t, decltype(byKey)> shapeSet(byKey);
  std::vector<std::size_t> rep(n);
  std::vector<std::size_t> reps;
  for (std::size_t i = 0; i < n; ++i) {
    rep[i] = *shapeSet.insert(i).first;
    if (rep[i] == i) reps.push_back(i);
  }
  std::vector<Footprint> out(n);
  parallelFor(reps.size(), [&](std::size_t s) {
    out[reps[s]] = processes_[reps[s]].footprint(arrays);
  });
  parallelFor(n, [&](std::size_t i) {
    if (rep[i] == i) return;
    const std::vector<ArrayId>& from = shapes[rep[i]].arrays;
    const std::vector<ArrayId>& to = shapes[i].arrays;
    for (const auto& [array, elements] : out[rep[i]].perArray()) {
      const auto local = static_cast<std::size_t>(
          std::find(from.begin(), from.end(), array) - from.begin());
      out[i].add(to[local], elements);
    }
  });
  return out;
}

std::string ExtendedProcessGraph::toDot() const {
  std::ostringstream os;
  os << "digraph epg {\n  rankdir=TB;\n";
  for (const TaskId task : tasks()) {
    os << "  subgraph cluster_task" << task << " {\n";
    os << "    label=\"task " << task << "\";\n";
    for (const ProcessId id : processesOfTask(task)) {
      os << "    p" << id << " [label=\"" << processes_[id].name << "\"];\n";
    }
    os << "  }\n";
  }
  for (ProcessId id = 0; id < processes_.size(); ++id) {
    for (const ProcessId succ : succs_[id]) {
      os << "  p" << id << " -> p" << succ << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace laps
