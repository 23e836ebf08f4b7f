#pragma once
/// \file rng.h
/// \brief Deterministic pseudo-random number generation.
///
/// All stochastic components of lapsched (random scheduling, workload
/// jitter) consume an explicit laps::Rng so experiments are reproducible
/// bit-for-bit from a seed. The generator is xoshiro256** seeded via
/// splitmix64, which is fast, well distributed, and has no global state.

#include <cstdint>
#include <vector>

namespace laps {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions, but the member helpers below are the
/// preferred interface inside the library.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose whole stream is determined by \p seed.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Uniform integer in [0, bound). \p bound must be > 0.
  /// Uses rejection sampling, so the result is exactly uniform.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Fisher-Yates shuffle of \p items.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Picks a uniformly random element index of a container of size \p n.
  std::size_t index(std::size_t n);

  /// Derives an independent child generator; used to give subsystems
  /// their own streams without correlating them.
  Rng split();

 private:
  std::uint64_t state_[4];
};

}  // namespace laps
