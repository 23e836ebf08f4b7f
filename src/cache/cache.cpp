#include "cache/cache.h"

#include <bit>

#include "util/stride.h"

namespace laps {

std::int64_t lineRunLength(std::uint64_t addr, std::int64_t strideBytes,
                           std::int64_t lineBytes) {
  return strideRunLength(addr, strideBytes, lineBytes);
}

void CacheStats::accumulate(const CacheStats& other) {
  accesses += other.accesses;
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  dirtyEvictions += other.dirtyEvictions;
  invalidations += other.invalidations;
}

SetAssocCache::SetAssocCache(CacheConfig config) : config_(config) {
  config_.validate();
  const auto lineBytes = static_cast<std::uint64_t>(config_.lineBytes);
  const auto numSets = static_cast<std::uint64_t>(config_.numSets());
  lineShift_ = static_cast<unsigned>(std::countr_zero(lineBytes));
  tagShift_ = lineShift_ + static_cast<unsigned>(std::countr_zero(numSets));
  setMask_ = numSets - 1;
  assoc_ = static_cast<std::size_t>(config_.assoc);
  ways_.resize(static_cast<std::size_t>(numSets) * assoc_);
}

void SetAssocCache::fillMiss(std::uint64_t addr, bool isWrite,
                             EvictionInfo* evicted) {
  ++stats_.misses;
  const std::uint64_t set = setIndexOf(addr);
  const std::size_t base = static_cast<std::size_t>(set) * assoc_;
  std::size_t candidate = base;
  for (std::size_t w = base; w < base + assoc_; ++w) {
    if (!ways_[w].valid) {
      candidate = w;
      break;
    }
    if (ways_[w].lastUse < ways_[candidate].lastUse) candidate = w;
  }
  Way& victim = ways_[candidate];
  if (victim.valid) {
    ++stats_.evictions;
    if (victim.dirty) ++stats_.dirtyEvictions;
    if (evicted != nullptr) {
      evicted->evicted = true;
      evicted->dirty = victim.dirty;
      evicted->lineAddr = victim.tag << tagShift_ | set << lineShift_;
    }
  }
  victim.tag = tagOf(addr);
  victim.valid = true;
  victim.dirty = isWrite;  // write-allocate
  victim.lastUse = useClock_;
}

void SetAssocCache::bulkHits(std::int64_t count) {
  stats_.accesses += static_cast<std::uint64_t>(count);
  stats_.hits += static_cast<std::uint64_t>(count);
  useClock_ += static_cast<std::uint64_t>(count);
}

void SetAssocCache::flush() {
  for (Way& way : ways_) {
    if (way.valid) {
      ++stats_.invalidations;
      if (way.dirty) ++stats_.dirtyEvictions;
    }
    way = Way{};
  }
}

bool SetAssocCache::invalidateLine(std::uint64_t addr) {
  const std::size_t w = find(addr);
  if (w == kAbsent) return false;
  ++stats_.invalidations;
  const bool dirty = ways_[w].dirty;
  if (dirty) ++stats_.dirtyEvictions;
  ways_[w] = Way{};
  return dirty;
}

std::int64_t SetAssocCache::residentLines() const {
  std::int64_t count = 0;
  for (const Way& way : ways_) {
    if (way.valid) ++count;
  }
  return count;
}

std::vector<SetAssocCache::ResidentLine> SetAssocCache::residentLineStates()
    const {
  std::vector<ResidentLine> lines;
  for (std::size_t w = 0; w < ways_.size(); ++w) {
    if (!ways_[w].valid) continue;
    const auto set = static_cast<std::uint64_t>(w / assoc_);
    lines.push_back({ways_[w].tag << tagShift_ | set << lineShift_,
                     ways_[w].lastUse, ways_[w].dirty});
  }
  return lines;
}

}  // namespace laps
