#include "cache/noc.h"

#include <algorithm>

#include "util/audit.h"
#include "util/error.h"

namespace laps {
namespace {

/// Smallest c with c*c >= n (integer ceil-sqrt; n is a core count, so
/// the linear walk is trivially cheap and stays float-free).
std::int64_t ceilSqrt(std::int64_t n) {
  std::int64_t c = 1;
  while (c * c < n) ++c;
  return c;
}

std::int64_t deriveCols(std::int64_t nodeCount, std::int64_t meshCols) {
  return meshCols > 0 ? meshCols : ceilSqrt(nodeCount);
}

}  // namespace

void NocConfig::validate(std::int64_t nodeCount) const {
  check(nodeCount >= 1, "NocConfig: node count must be positive");
  check(meshCols >= 0, "NocConfig: meshCols must be non-negative");
  check(hopCycles >= 0, "NocConfig: hopCycles must be non-negative");
  check(linkWidthBytes >= 0, "NocConfig: linkWidthBytes must be non-negative");
  check(migrationHopCycles >= 0,
        "NocConfig: migrationHopCycles must be non-negative");
  check(meshCols <= nodeCount,
        "NocConfig: meshCols exceeds the node count");
}

NocTopology::NocTopology(NocTopologyKind kind, std::int64_t nodeCount,
                         std::int64_t meshCols)
    : kind_(kind), nodeCount_(nodeCount) {
  check(nodeCount_ >= 1, "NocTopology: node count must be positive");
  if (kind_ == NocTopologyKind::Mesh) {
    cols_ = deriveCols(nodeCount_, meshCols);
    check(cols_ >= 1 && cols_ <= nodeCount_, "NocTopology: bad column count");
    rows_ = (nodeCount_ + cols_ - 1) / cols_;
  }
}

std::int64_t NocTopology::hops(std::int64_t a, std::int64_t b) const {
  check(a >= 0 && a < nodeCount_ && b >= 0 && b < nodeCount_,
        "NocTopology: node out of range");
  if (kind_ == NocTopologyKind::Xbar) return a == b ? 0 : 1;
  const std::int64_t dr = a / cols_ - b / cols_;
  const std::int64_t dc = a % cols_ - b % cols_;
  return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
}

std::int64_t NocTopology::maxHops() const {
  if (kind_ == NocTopologyKind::Xbar) return nodeCount_ > 1 ? 1 : 0;
  // Even when the last row is ragged, cells (0, cols-1) and (rows-1, 0)
  // are always populated, so the populated-grid diameter is the full
  // bounding-box diameter.
  return (rows_ - 1) + (cols_ - 1);
}

std::int64_t NocTopology::eccentricity(std::int64_t node) const {
  std::int64_t total = 0;
  for (std::int64_t other = 0; other < nodeCount_; ++other) {
    total += hops(node, other);
  }
  return total;
}

std::vector<std::int64_t> NocTopology::spiralOrder() const {
  std::vector<std::int64_t> order;
  order.reserve(static_cast<std::size_t>(nodeCount_));
  if (kind_ == NocTopologyKind::Xbar || nodeCount_ == 1) {
    for (std::int64_t n = 0; n < nodeCount_; ++n) order.push_back(n);
    return order;
  }
  // Classic outward spiral from the (low-biased) center cell: step
  // east, south, west, north with run lengths 1, 1, 2, 2, 3, 3, ...
  // Cells outside the populated grid are skipped, so the result is a
  // permutation of [0, nodeCount) for ragged meshes too.
  std::int64_t r = (rows_ - 1) / 2;
  std::int64_t c = (cols_ - 1) / 2;
  static constexpr std::int64_t kDr[4] = {0, 1, 0, -1};  // E S W N
  static constexpr std::int64_t kDc[4] = {1, 0, -1, 0};
  std::int64_t dir = 0;
  std::int64_t run = 1;
  auto visit = [&](std::int64_t row, std::int64_t col) {
    if (row < 0 || row >= rows_ || col < 0 || col >= cols_) return;
    const std::int64_t id = row * cols_ + col;
    if (id < nodeCount_) order.push_back(id);
  };
  visit(r, c);
  while (static_cast<std::int64_t>(order.size()) < nodeCount_) {
    for (int leg = 0; leg < 2; ++leg) {
      for (std::int64_t step = 0; step < run; ++step) {
        r += kDr[dir];
        c += kDc[dir];
        visit(r, c);
      }
      dir = (dir + 1) % 4;
    }
    ++run;
    check(run <= rows_ + cols_ + 2, "NocTopology: spiral failed to cover");
  }
  return order;
}

NocFabric::NocFabric(const NocConfig& config, std::int64_t nodeCount,
                     std::int64_t lineBytes, NocTopologyKind kind)
    : config_(config), topology_(kind, nodeCount, config.meshCols) {
  config_.validate(nodeCount);
  check(lineBytes >= 1, "NocFabric: lineBytes must be positive");
  if (config_.linkWidthBytes > 0) {
    occupancyCycles_ =
        (lineBytes + config_.linkWidthBytes - 1) / config_.linkWidthBytes;
    if (occupancyCycles_ < 1) occupancyCycles_ = 1;
  }
  const std::size_t linkCount =
      kind == NocTopologyKind::Mesh
          ? static_cast<std::size_t>(nodeCount) * 4
          : static_cast<std::size_t>(nodeCount);
  links_.resize(linkCount);
}

std::int64_t NocFabric::traverseLink(std::size_t linkId, std::int64_t t,
                                     std::int64_t* wait) {
  if (occupancyCycles_ > 0) {
    LAPS_AUDIT(audit::issuedAtOrAfterHorizon(t, horizon_));
    BusyTimeline& link = links_[linkId];
    link.retireBefore(horizon_);
    const std::int64_t start = link.reserve(t, occupancyCycles_);
    *wait += start - t;
    t = start;
  }
  return t + config_.hopCycles;
}

std::int64_t NocFabric::route(std::int64_t src, std::int64_t dst,
                              std::int64_t now, bool demand) {
  if (src == dst) return 0;
  std::int64_t t = now;
  std::int64_t wait = 0;
  std::int64_t hopCount = 0;
  if (topology_.kind() == NocTopologyKind::Xbar) {
    // Single stage: contention is on the destination's output port.
    t = traverseLink(static_cast<std::size_t>(dst), t, &wait);
    hopCount = 1;
  } else {
    // XY dimension-order routing: resolve the column first, then the
    // row. Directed links are indexed node*4 + {E=0, W=1, S=2, N=3}.
    const std::int64_t cols = topology_.cols();
    std::int64_t r = src / cols;
    std::int64_t c = src % cols;
    const std::int64_t dr = dst / cols;
    const std::int64_t dc = dst % cols;
    while (c != dc) {
      const std::int64_t dir = c < dc ? 0 : 1;
      t = traverseLink(static_cast<std::size_t>((r * cols + c) * 4 + dir), t,
                       &wait);
      c += c < dc ? 1 : -1;
      ++hopCount;
    }
    while (r != dr) {
      const std::int64_t dir = r < dr ? 2 : 3;
      t = traverseLink(static_cast<std::size_t>((r * cols + c) * 4 + dir), t,
                       &wait);
      r += r < dr ? 1 : -1;
      ++hopCount;
    }
  }
  if (demand) {
    ++stats_.transfers;
    stats_.hopCycles += static_cast<std::uint64_t>(hopCount * config_.hopCycles);
    stats_.linkWaitCycles += static_cast<std::uint64_t>(wait);
  } else {
    ++stats_.postedTransfers;
  }
  return t - now;
}

std::int64_t NocFabric::demandTransfer(std::int64_t src, std::int64_t dst,
                                       std::int64_t now) {
  return route(src, dst, now, /*demand=*/true);
}

void NocFabric::postedTransfer(std::int64_t src, std::int64_t dst,
                               std::int64_t now) {
  route(src, dst, now, /*demand=*/false);
}

void NocFabric::retireBefore(std::int64_t cycle) {
  horizon_ = std::max(horizon_, cycle);
}

}  // namespace laps
