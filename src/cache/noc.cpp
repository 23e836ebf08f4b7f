#include "cache/noc.h"

#include <algorithm>
#include <bit>
#include <string>

#include "cache/bus.h"
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

constexpr int kWordShift = 6;  // 64 cycles per calendar word
constexpr std::int64_t kWordBits = std::int64_t{1} << kWordShift;
constexpr std::size_t kSlotMask = LinkCalendar::kSlots - 1;
static_assert(std::has_single_bit(LinkCalendar::kSlots));

std::size_t slotOf(std::int64_t word) {
  return static_cast<std::size_t>(word) & kSlotMask;
}

bool wordBelow(const LinkWord& entry, std::int64_t word) {
  return entry.word < word;
}

}  // namespace

namespace audit {

void linkCalendarConsistent(const LinkCalendar& link, std::int64_t horizon,
                            std::int64_t fromWord, std::int64_t toWord) {
  const std::int64_t horizonWord = horizon >> kWordShift;
  const auto ring = link.ring();
  const auto overflow = link.overflow();
  require(!ring.empty() || overflow.empty(),
          "LinkCalendar: overflow words without a ring");
  // The overflow words in [fromWord, toWord] and one neighbour each side.
  const auto first = static_cast<std::size_t>(
      std::lower_bound(overflow.begin(), overflow.end(), fromWord, wordBelow) -
      overflow.begin());
  for (std::size_t i = first > 0 ? first - 1 : 0; i < overflow.size(); ++i) {
    const std::int64_t word = overflow[i].word;
    if (i > 0) {
      require(word > overflow[i - 1].word,
              "LinkCalendar: overflow word " + std::to_string(word) +
                  " does not ascend past " +
                  std::to_string(overflow[i - 1].word));
    }
    const std::int64_t occupant = ring[slotOf(word)].word;
    require(occupant != word, "LinkCalendar: word " + std::to_string(word) +
                                  " lives in both the ring and the overflow");
    require(occupant >= horizonWord && occupant > word,
            "LinkCalendar: overflow word " + std::to_string(word) +
                " does not collide with a live, larger slot word (slot "
                "holds " + std::to_string(occupant) + ", horizon word " +
                std::to_string(horizonWord) + ")");
    if (word > toWord) break;
  }
}

}  // namespace audit

std::uint64_t LinkCalendar::bitsOf(std::int64_t word) const {
  const LinkWord& slot = ring_[slotOf(word)];
  if (slot.word == word) return slot.bits;
  // Overflow words sit below their slot's word, so a slot tagged below
  // \p word (dead, or live and older) rules the overflow out.
  if (slot.word < word || overflow_.empty()) return 0;
  const auto it =
      std::lower_bound(overflow_.begin(), overflow_.end(), word, wordBelow);
  return it != overflow_.end() && it->word == word ? it->bits : 0;
}

std::int64_t LinkCalendar::findStart(std::int64_t now,
                                     std::int64_t duration) const {
  // Every cycle in [start, cursor) is known free.
  std::int64_t start = now;
  std::int64_t cursor = now;
  for (;;) {
    const int offset = static_cast<int>(cursor & (kWordBits - 1));
    const std::uint64_t busy = bitsOf(cursor >> kWordShift) >> offset;
    if (busy == 0) {
      cursor += kWordBits - offset;  // free to the end of the word
      if (cursor - start >= duration) return start;
      continue;
    }
    const int free = std::countr_zero(busy);
    if (cursor + free - start >= duration) return start;
    // Too short: restart past the busy run (it may run on into the
    // next word, whose walk then skips the rest of it).
    cursor += free + std::countr_one(busy >> free);
    start = cursor;
  }
}

void LinkCalendar::addOverflow(LinkWord entry) {
  const auto it = std::lower_bound(overflow_.begin(), overflow_.end(),
                                   entry.word, wordBelow);
  if (it != overflow_.end() && it->word == entry.word) {
    it->bits |= entry.bits;
  } else {
    overflow_.insert(it, entry);
  }
}

std::int64_t LinkCalendar::setBits(std::int64_t word, std::uint64_t bits,
                                   std::int64_t horizonWord) {
  LinkWord& slot = ring_[slotOf(word)];
  if (slot.word == word) {
    slot.bits |= bits;
  } else if (slot.word < word) {
    // The larger word keeps the slot, so every overflow word sits below
    // its slot's word and stays live only while that word does: a live
    // occupant moves to the overflow, a dead one is overwritten.
    const LinkWord occupant = slot;
    slot = {word, bits};
    if (occupant.word >= horizonWord) {
      addOverflow(occupant);
      return occupant.word;
    }
  } else {
    addOverflow({word, bits});
  }
  return word;
}

std::int64_t LinkCalendar::reserve(std::int64_t now, std::int64_t duration,
                                   std::int64_t horizon) {
  check(duration > 0, "LinkCalendar: duration must be positive");
  if (ring_.empty()) ring_.resize(kSlots);
  const std::int64_t horizonWord = horizon >> kWordShift;
  if (!overflow_.empty() && overflow_.front().word < horizonWord) {
    overflow_.erase(overflow_.begin(),
                    std::lower_bound(overflow_.begin(), overflow_.end(),
                                     horizonWord, wordBelow));
  }
  const std::int64_t start = findStart(now, duration);
  for (std::int64_t cycle = start, end = start + duration; cycle < end;) {
    const std::int64_t offset = cycle & (kWordBits - 1);
    const std::int64_t span = std::min(end - cycle, kWordBits - offset);
    const std::uint64_t run =
        span == kWordBits ? ~std::uint64_t{0}
                          : ((std::uint64_t{1} << span) - 1) << offset;
    const std::int64_t word = cycle >> kWordShift;
    const std::int64_t moved = setBits(word, run, horizonWord);
    // The booked word and the occupant it moved to the overflow, if
    // any, each with its overflow neighbours; the owner audits the
    // whole calendar once per segment start (NocFabric::retireBefore).
    LAPS_AUDIT(audit::linkCalendarConsistent(*this, horizon, word, word);
               if (moved != word) {
                 audit::linkCalendarConsistent(*this, horizon, moved, moved);
               });
    cycle += span;
  }
  return start;
}

void LinkCalendar::auditInjectOverflowWordForTest(LinkWord word) {
  overflow_.push_back(word);
}

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
    const std::int64_t start =
        links_[linkId].reserve(t, occupancyCycles_, horizon_);
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
  // Every calendar, once per segment start. Overflow words whose slot
  // word died wait for the link's next booking to drop them, so the
  // check runs without a horizon: order and collisions only.
  LAPS_AUDIT(for (const LinkCalendar& link : links_) {
    audit::linkCalendarConsistent(link,
                                  std::numeric_limits<std::int64_t>::min());
  });
  horizon_ = std::max(horizon_, cycle);
}

}  // namespace laps
