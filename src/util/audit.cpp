#include "util/audit.h"

namespace laps::audit {

void require(bool condition, std::string_view message) {
  if (!condition) {
    throw AuditError(std::string(message));
  }
}

void eventOrder(std::int64_t previousCycle, int previousSource,
                std::int64_t cycle, int source) {
  require(cycle > previousCycle ||
              (cycle == previousCycle && source >= previousSource),
          "event order violated: event of source " + std::to_string(source) +
              " at cycle " + std::to_string(cycle) +
              " popped after source " + std::to_string(previousSource) +
              " at cycle " + std::to_string(previousCycle));
}

void admissionIdentity(std::size_t samples, std::size_t rejected,
                       std::size_t failed, std::size_t processes) {
  require(samples + rejected + failed == processes,
          "admission identity violated: " + std::to_string(samples) +
              " sojourn samples + " + std::to_string(rejected) +
              " rejected + " + std::to_string(failed) +
              " failed != " + std::to_string(processes) + " processes");
}

void departureConservation(std::size_t departed, std::size_t completed,
                           std::size_t rejected, std::size_t retired,
                           std::size_t failed) {
  require(departed == completed + rejected + retired + failed,
          "departure conservation violated: " + std::to_string(departed) +
              " departed != " + std::to_string(completed) + " completed + " +
              std::to_string(rejected) + " rejected + " +
              std::to_string(retired) + " retired + " +
              std::to_string(failed) + " failed");
}

void coreUpForDispatch(bool coreDown, std::size_t core) {
  require(!coreDown, "down-core dispatch: a segment was dispatched on core " +
                         std::to_string(core) + " while it is down");
}

void percentileOrdering(std::int64_t p50, std::int64_t p95, std::int64_t p99,
                        std::size_t samples) {
  if (samples == 0) {
    require(p50 == 0 && p95 == 0 && p99 == 0,
            "percentiles nonzero with zero samples");
    return;
  }
  require(p50 <= p95 && p95 <= p99,
          "percentile ordering violated: p50=" + std::to_string(p50) +
              " p95=" + std::to_string(p95) + " p99=" + std::to_string(p99));
}

}  // namespace laps::audit
