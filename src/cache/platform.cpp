#include "cache/platform.h"

#include "util/error.h"

namespace laps {

NocTopologyKind PlatformConfig::nocKind() const {
  check(nocEnabled(), "PlatformConfig: interconnect has no NoC topology");
  return interconnect == InterconnectKind::Mesh ? NocTopologyKind::Mesh
                                                : NocTopologyKind::Xbar;
}

void PlatformConfig::validate(std::size_t coreCount) const {
  check(coreCount >= 1, "PlatformConfig: core count must be positive");
  if (sharedL2) sharedL2->validate();
  if (busEnabled()) bus.validate();
  if (nocEnabled()) noc.validate(static_cast<std::int64_t>(coreCount));
  if (coherence == CoherenceKind::Directory) {
    check(sharedL2.has_value(),
          "PlatformConfig: Directory coherence requires a shared L2 "
          "(its ways hold the sharer masks)");
    check(nocEnabled(),
          "PlatformConfig: Directory coherence requires a Mesh or Xbar "
          "interconnect to route targeted invalidations over");
    check(coreCount <= 64,
          "PlatformConfig: Directory coherence supports at most 64 cores");
  }
}

}  // namespace laps
