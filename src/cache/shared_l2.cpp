#include "cache/shared_l2.h"

#include <algorithm>

#include "util/audit.h"
#include "util/error.h"

namespace laps {

CacheConfig SharedL2Config::bankConfig() const {
  CacheConfig bank;
  bank.sizeBytes = sizeBytes / bankCount;
  bank.assoc = assoc;
  bank.lineBytes = lineBytes;
  bank.hitLatencyCycles = hitLatencyCycles;
  return bank;
}

CacheConfig SharedL2Config::aggregateConfig() const {
  CacheConfig whole;
  whole.sizeBytes = sizeBytes;
  whole.assoc = assoc;
  whole.lineBytes = lineBytes;
  whole.hitLatencyCycles = hitLatencyCycles;
  return whole;
}

void SharedL2Config::validate() const {
  check(bankCount >= 1, "SharedL2Config: bankCount must be >= 1");
  check(sizeBytes % bankCount == 0,
        "SharedL2Config: sizeBytes must divide evenly into banks");
  check(hitLatencyCycles >= 1,
        "SharedL2Config: hitLatencyCycles must be >= 1");
  check(bankBusyCycles >= 1, "SharedL2Config: bankBusyCycles must be >= 1");
  bankConfig().validate();
}

SharedL2::SharedL2(const SharedL2Config& config, bool trackSharers)
    : config_(config) {
  config_.validate();
  const CacheConfig bank = config_.bankConfig();
  banks_.reserve(static_cast<std::size_t>(config_.bankCount));
  for (std::int64_t b = 0; b < config_.bankCount; ++b) {
    banks_.emplace_back(bank);
  }
  calendars_.resize(static_cast<std::size_t>(config_.bankCount));
  waysPerBank_ = static_cast<std::size_t>(bank.numLines());
  if (trackSharers) sharers_.assign(banks_.size() * waysPerBank_, 0);
}

std::int64_t SharedL2::bankOf(std::uint64_t addr) const {
  return static_cast<std::int64_t>(
      (addr / static_cast<std::uint64_t>(config_.lineBytes)) %
      static_cast<std::uint64_t>(config_.bankCount));
}

std::uint64_t SharedL2::fold(std::uint64_t addr) const {
  const auto line = static_cast<std::uint64_t>(config_.lineBytes);
  const auto banks = static_cast<std::uint64_t>(config_.bankCount);
  return (addr / line / banks) * line + addr % line;
}

std::uint64_t SharedL2::unfold(std::uint64_t foldedLineAddr,
                               std::int64_t bank) const {
  const auto line = static_cast<std::uint64_t>(config_.lineBytes);
  const auto banks = static_cast<std::uint64_t>(config_.bankCount);
  return (foldedLineAddr / line * banks + static_cast<std::uint64_t>(bank)) *
         line;
}

L2AccessResult SharedL2::access(std::uint64_t addr, std::int64_t now,
                                std::uint64_t sharer) {
  const std::int64_t bank = bankOf(addr);
  const auto b = static_cast<std::size_t>(bank);

  L2AccessResult result;
  LAPS_AUDIT(audit::issuedAtOrAfterHorizon(now, horizon_));
  calendars_[b].retireBefore(horizon_);
  const std::int64_t start =
      calendars_[b].reserve(now, config_.bankBusyCycles);
  result.bankWaitCycles = start - now;
  bankWait_ += static_cast<std::uint64_t>(result.bankWaitCycles);

  EvictionInfo evicted;
  const std::uint64_t folded = fold(addr);
  // Fills arrive clean: dirtiness only flows in through writeback().
  result.outcome = banks_[b].access(folded, /*isWrite=*/false, &evicted);
  if (evicted.evicted) {
    result.evictedLineAddr = unfold(evicted.lineAddr, bank);
    result.evictedLineDirty = evicted.dirty;
  }
  if (!sharers_.empty()) {
    // The line is resident now — a miss filled the victim's way — so
    // one lookup finds the mask; a miss hands the old one to the recall.
    std::uint64_t& mask = sharers_[b * waysPerBank_ + banks_[b].wayOf(folded)];
    if (result.outcome == AccessOutcome::Miss) {
      result.evictedSharers = mask;
      mask = 0;
    }
    mask |= sharer;
  }
  return result;
}

std::size_t SharedL2::sharerSlot(std::uint64_t addr) const {
  if (sharers_.empty()) return SetAssocCache::kAbsent;
  const auto b = static_cast<std::size_t>(bankOf(addr));
  const std::size_t way = banks_[b].wayOf(fold(addr));
  return way == SetAssocCache::kAbsent ? way : b * waysPerBank_ + way;
}

std::uint64_t SharedL2::sharersOf(std::uint64_t addr) const {
  const std::size_t slot = sharerSlot(addr);
  return slot == SetAssocCache::kAbsent ? 0 : sharers_[slot];
}

void SharedL2::clearSharersForTest(std::uint64_t addr) {
  const std::size_t slot = sharerSlot(addr);
  check(slot != SetAssocCache::kAbsent,
        "SharedL2::clearSharersForTest: no tracked mask for the line");
  sharers_[slot] = 0;
}

bool SharedL2::writeback(std::uint64_t addr) {
  const auto b = static_cast<std::size_t>(bankOf(addr));
  const std::uint64_t folded = fold(addr);
  if (!banks_[b].probe(folded)) return false;
  // Merge the dirty bit without perturbing statistics or LRU order:
  // touch() keeps the newer stamp, and stamp 0 never wins.
  banks_[b].touch(folded, /*isWrite=*/true, /*lastUseStamp=*/0);
  return true;
}

bool SharedL2::probe(std::uint64_t addr) const {
  const auto b = static_cast<std::size_t>(bankOf(addr));
  return banks_[b].probe(fold(addr));
}

CacheStats SharedL2::stats() const {
  CacheStats total;
  for (const SetAssocCache& bank : banks_) total.accumulate(bank.stats());
  return total;
}

void SharedL2::resetStats() {
  for (SetAssocCache& bank : banks_) bank.resetStats();
  bankWait_ = 0;
}

void SharedL2::retireBefore(std::int64_t cycle) {
  horizon_ = std::max(horizon_, cycle);
  LAPS_AUDIT(for (const BusyTimeline& calendar : calendars_) {
    audit::timelineDisjoint(calendar.intervals());
  });
}

}  // namespace laps
