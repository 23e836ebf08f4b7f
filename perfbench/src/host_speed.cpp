#include "host_speed.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "timed_policy.h"

namespace perfbench {

namespace {

constexpr std::size_t kChainSlots = std::size_t{1} << 22;  // 16 MiB
constexpr std::size_t kChainSteps = 150'000;
constexpr std::size_t kTagSets = std::size_t{1} << 14;     // 256 KiB, 2-way
constexpr std::size_t kTagLookups = 1'000'000;
constexpr std::size_t kSortKeys = std::size_t{1} << 16;    // 256 KiB
constexpr std::size_t kSortRounds = 4;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

HostSpeed::HostSpeed()
    : chain_(kChainSlots), tags_(2 * kTagSets, 0), keys_(kSortKeys) {
  std::vector<std::uint32_t> order(kChainSlots);
  std::iota(order.begin(), order.end(), 0U);
  std::uint64_t x = 7;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    x = lcg(x);
    std::swap(order[i], order[(x >> 33) % (i + 1)]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    chain_[order[i]] = order[(i + 1) % order.size()];
  }
}

double HostSpeed::measure() {
  const Clock::time_point start = Clock::now();
  // Dependent loads: each step waits for the previous one.
  std::uint32_t slot = static_cast<std::uint32_t>(state_ % kChainSlots);
  for (std::size_t i = 0; i < kChainSteps; ++i) slot = chain_[slot];
  // Set-associative lookups with LRU replacement, as a cache model does.
  std::uint64_t x = state_ + slot;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < kTagLookups; ++i) {
    x = lcg(x);
    const std::uint64_t line = (x >> 45) & ((std::uint64_t{1} << 17) - 1);
    std::uint64_t* way = &tags_[2 * (line % kTagSets)];
    if (way[0] == line) {
      ++hits;
    } else if (way[1] == line) {
      std::swap(way[0], way[1]);
      ++hits;
    } else {
      way[1] = way[0];
      way[0] = line;
    }
  }
  // Comparison sorts of fresh pseudo-random keys: data-dependent branches.
  for (std::size_t r = 0; r < kSortRounds; ++r) {
    for (std::uint32_t& key : keys_) {
      x = lcg(x);
      key = static_cast<std::uint32_t>(x >> 40);
    }
    std::sort(keys_.begin(), keys_.end());
    hits += keys_[kSortKeys / 2];
  }
  state_ = x + hits;  // keeps the loops' results live
  return secondsBetween(start, Clock::now());
}

std::size_t HostSpeed::residentBytes() const {
  return chain_.size() * sizeof(chain_[0]) + tags_.size() * sizeof(tags_[0]) +
         keys_.size() * sizeof(keys_[0]);
}

}  // namespace perfbench
