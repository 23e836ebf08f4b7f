#pragma once
/// \file platform.h
/// \brief Composable platform descriptor: cores × interconnect ×
/// coherence × optional shared L2.
///
/// PlatformConfig spans the shared-level axes in one descriptor,
/// validated eagerly in one place:
///
///   interconnect  Flat | Bus | Mesh | Xbar   (how misses travel)
///   coherence     Broadcast | Directory      (how inclusion recalls)
///   sharedL2      optional banked inclusive L2 (orthogonal to both)
///
/// MpsocConfig::platform carries it; unset, MpsocConfig::
/// resolvedPlatform() yields the default descriptor (the paper's
/// platform).

#include <optional>
#include <string_view>

#include "cache/bus.h"
#include "cache/noc.h"
#include "cache/shared_l2.h"

namespace laps {

/// How misses travel from a core to the shared levels and memory.
enum class InterconnectKind {
  Flat,  ///< fixed latency, no contention (the paper's abstraction)
  Bus,   ///< single shared split-transaction bus (cache/bus.h)
  Mesh,  ///< 2D mesh NoC, XY routing (cache/noc.h)
  Xbar,  ///< single-stage crossbar NoC (cache/noc.h)
};

/// How the inclusive shared L2 recalls victim lines from private L1s.
enum class CoherenceKind {
  Broadcast,  ///< probe every L1 (the pre-directory protocol)
  /// targeted probes via a sharer bitmask per L2 way (cache/shared_l2.h)
  Directory,
};

[[nodiscard]] constexpr std::string_view interconnectKindName(
    InterconnectKind kind) {
  switch (kind) {
    case InterconnectKind::Flat: return "flat";
    case InterconnectKind::Bus: return "bus";
    case InterconnectKind::Mesh: return "mesh";
    case InterconnectKind::Xbar: return "xbar";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view coherenceKindName(
    CoherenceKind kind) {
  switch (kind) {
    case CoherenceKind::Broadcast: return "broadcast";
    case CoherenceKind::Directory: return "directory";
  }
  return "?";
}

/// The platform's shared-level topology (see file comment). The default
/// descriptor is the paper's platform: flat memory, broadcast recalls,
/// no shared L2.
struct PlatformConfig {
  InterconnectKind interconnect = InterconnectKind::Flat;
  CoherenceKind coherence = CoherenceKind::Broadcast;
  /// Banked inclusive shared L2 between the L1s and memory.
  std::optional<SharedL2Config> sharedL2;
  /// Bus timing; consumed only when interconnect == Bus.
  BusConfig bus{};
  /// NoC geometry and timing; consumed only when interconnect is
  /// Mesh or Xbar.
  NocConfig noc{};

  [[nodiscard]] bool nocEnabled() const {
    return interconnect == InterconnectKind::Mesh ||
           interconnect == InterconnectKind::Xbar;
  }
  [[nodiscard]] bool busEnabled() const {
    return interconnect == InterconnectKind::Bus;
  }
  /// The NocTopologyKind of a NoC interconnect; nocEnabled() required.
  [[nodiscard]] NocTopologyKind nocKind() const;

  /// Validates the whole descriptor eagerly: each enabled component's
  /// own invariants, plus the cross-field rules (Directory coherence
  /// requires a shared L2 whose ways hold the sharer masks, a NoC to
  /// route the targeted invalidations over, and at most 64 cores for
  /// the 64-bit masks). Throws laps::Error.
  void validate(std::size_t coreCount) const;
};

}  // namespace laps
