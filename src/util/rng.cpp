#include "util/rng.h"

#include "util/error.h"

namespace laps {
namespace {

/// splitmix64 step; used only for seeding so a poor seed (e.g. 0 or 1)
/// still yields a well-mixed xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  check(bound > 0, "Rng::below requires bound > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  check(lo <= hi, "Rng::range requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

std::size_t Rng::index(std::size_t n) {
  check(n > 0, "Rng::index requires a non-empty container");
  return static_cast<std::size_t>(below(n));
}

Rng Rng::split() {
  // Derive a child seed from two draws; the parent advances so repeated
  // splits yield independent streams.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl(b, 32) ^ 0xd3833e804f4c574bULL);
}

}  // namespace laps
