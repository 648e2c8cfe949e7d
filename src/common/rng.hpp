// Deterministic pseudo-random number generation for reproducible simulation.
//
// The simulator must produce bit-identical runs for a given seed across
// platforms, so we implement xoshiro256** (Blackman & Vigna) seeded through
// splitmix64 instead of relying on the implementation-defined distributions
// of <random>. All distribution helpers (uniform doubles, bounded integers,
// Bernoulli trials, sampling without replacement) are implemented here with
// fully specified algorithms.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract.hpp"

namespace pmc {

/// splitmix64 — used to stretch a single 64-bit seed into the 256-bit
/// xoshiro state, and to derive independent child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the simulator's workhorse generator.
/// Satisfies UniformRandomBitGenerator so it can also feed <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d1ef5a3c0ffee42ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) via Lemire's nearly-divisionless method.
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Standard normal deviate via Acklam's rational inverse-CDF
  /// approximation of a single uniform draw (no rejection loop, so the
  /// draw count per call is fixed — one — which labeled streams rely on).
  /// The polynomial is fully specified here; the only libm calls are
  /// std::sqrt (IEEE correctly rounded) and std::log, whose last-ulp
  /// variance across libms is far below the integer rounding every
  /// consumer applies (sim-time latencies), so replays stay byte-identical
  /// in practice and exactly on any one toolchain.
  double next_normal() noexcept;

  /// Derive an independent generator (for per-process / per-run streams).
  Rng split() noexcept { return Rng(next_u64()); }

  /// k distinct indices drawn uniformly from [0, n) without replacement,
  /// in selection order (partial Fisher-Yates: k next_below draws, the
  /// i-th bounded by n - i). For k <= kSparseSampleLimit the work and
  /// memory are O(k), independent of n; larger k walks an n-element index
  /// vector. Both give the same draws and the same result.
  /// Precondition: k <= n.
  static constexpr std::size_t kSparseSampleLimit = 16;
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4]{};
};

}  // namespace pmc
