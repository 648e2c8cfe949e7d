#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <numeric>
#include <utility>

namespace pmc {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t Rng::next_u64() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire 2019, "Fast Random Integer Generation in an Interval".
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_normal() noexcept {
  // Acklam's inverse normal CDF approximation (relative error < 1.15e-9
  // over the whole open interval), evaluated on one uniform draw mapped
  // into (0, 1). Good far beyond what latency sampling needs, and — unlike
  // Box-Muller or Ziggurat — consumes exactly one draw with no
  // trigonometry and no rejection loop.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  // Map the 53-bit uniform into the open interval: 0 would send the lower
  // tail branch to log(0).
  const double p = (static_cast<double>(next_u64() >> 11) + 0.5) * 0x1.0p-53;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  PMC_EXPECTS(k <= n);
  // Partial Fisher-Yates over the identity array [0, n): step i swaps
  // positions i and j = i + next_below(n - i) and emits what j held.
  std::vector<std::size_t> out(k);
  if (k <= kSparseSampleLimit) {
    // Small k (every gossip fan-out): keep only the displaced positions,
    // as (position, value) pairs, instead of materializing the n-element
    // array. Step i never reads a position below i again, so a pair is
    // only ever looked up or overwritten, never removed.
    using Moved = std::pair<std::size_t, std::size_t>;
    std::array<Moved, kSparseSampleLimit> moved;
    std::size_t moved_n = 0;
    const auto slot = [&](std::size_t pos) -> Moved* {
      for (std::size_t t = 0; t < moved_n; ++t)
        if (moved[t].first == pos) return &moved[t];
      return nullptr;
    };
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = i + static_cast<std::size_t>(next_below(n - i));
      auto* at_j = slot(j);
      out[i] = at_j != nullptr ? at_j->second : j;
      if (j == i) continue;
      const auto* at_i = slot(i);
      const std::size_t held_i = at_i != nullptr ? at_i->second : i;
      if (at_j != nullptr)
        at_j->second = held_i;
      else
        moved[moved_n++] = {j, held_i};
    }
    return out;
  }
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(next_below(n - i));
    using std::swap;
    swap(idx[i], idx[j]);
    out[i] = idx[i];
  }
  return out;
}

}  // namespace pmc
