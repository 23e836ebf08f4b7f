#include "taskgraph/validate.h"

#include "util/error.h"

namespace laps {

void validateWorkload(const Workload& workload) {
  check(workload.graph.isAcyclic(),
        "validateWorkload: dependence graph has a cycle");
  for (const ProcessSpec& p : workload.graph.processes()) {
    check(p.nests.size() <= kMaxNestsPerProcess,
          "validateWorkload: process '" + p.name + "' has " +
              std::to_string(p.nests.size()) + " loop nests (at most " +
              std::to_string(kMaxNestsPerProcess) + ")");
    for (const LoopNest& nest : p.nests) {
      for (const ArrayAccess& access : nest.accesses) {
        check(access.array < workload.arrays.size(),
              "validateWorkload: process '" + p.name +
                  "' references unknown array id " +
                  std::to_string(access.array));
        const ArrayInfo& info = workload.arrays.at(access.array);
        const Interval b = accessFootprintBounds(nest.space, access, info);
        if (b.empty()) continue;
        check(b.lo >= 0 && b.hi <= info.numElements(),
              "validateWorkload: process '" + p.name + "' accesses array '" +
                  info.name + "' out of bounds ([" + std::to_string(b.lo) +
                  ", " + std::to_string(b.hi) + ") vs " +
                  std::to_string(info.numElements()) + " elements)");
      }
    }
  }
}

}  // namespace laps
