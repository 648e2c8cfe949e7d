#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace pmc {
namespace {

TEST(SplitMix64, KnownSequenceFromZeroSeed) {
  // Reference values for splitmix64 seeded with 0 (public test vectors).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(4);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng r(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowUniformity) {
  Rng r(11);
  constexpr std::uint64_t kBuckets = 8;
  std::vector<int> counts(kBuckets, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(kBuckets)];
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, n / 8.0 * 0.1);
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(21);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(32);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(41);
  const auto s = r.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  const std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng r(42);
  auto s = r.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleZeroEmpty) {
  Rng r(43);
  EXPECT_TRUE(r.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleTooManyThrows) {
  Rng r(44);
  EXPECT_THROW(r.sample_without_replacement(3, 4), std::logic_error);
}

/// The algorithm sample_without_replacement replaced: partial
/// Fisher-Yates over a materialized n-element index vector. Kept here as
/// the oracle for the draw-for-draw property below.
std::vector<std::size_t> reference_sample(Rng& r, std::size_t n,
                                          std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(r.next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

/// Same outputs, and the generator left in the same state (so the same
/// next_below calls were made), as the reference.
void expect_matches_reference(std::uint64_t seed, std::size_t n,
                              std::size_t k) {
  Rng fast(seed), slow(seed);
  ASSERT_EQ(fast.sample_without_replacement(n, k),
            reference_sample(slow, n, k))
      << "seed " << seed << " n " << n << " k " << k;
  ASSERT_EQ(fast.next_u64(), slow.next_u64())
      << "seed " << seed << " n " << n << " k " << k;
}

TEST(Rng, SampleMatchesIndexVectorFisherYatesOnEverySmallShape) {
  // Every k <= n on small n, so both the swap-list path (k up to
  // kSparseSampleLimit) and the index-vector path are covered edge to edge.
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    for (std::size_t n = 0; n <= 40; ++n)
      for (std::size_t k = 0; k <= n; ++k) expect_matches_reference(seed, n, k);
}

TEST(Rng, SampleMatchesIndexVectorFisherYatesUpToTenThousand) {
  Rng shapes(0x5a3b1e);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + shapes.next_below(10000);
    // Mostly fan-out sized k, sometimes just past the swap-list limit,
    // sometimes anything up to n.
    std::size_t k = 0;
    switch (trial % 3) {
      case 0: k = shapes.next_below(Rng::kSparseSampleLimit + 1); break;
      case 1: k = Rng::kSparseSampleLimit + 1 + shapes.next_below(8); break;
      default: k = shapes.next_below(n + 1); break;
    }
    expect_matches_reference(shapes.next_u64(), n, std::min(k, n));
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(50);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child1.next_u64() == child2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(60);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace pmc
