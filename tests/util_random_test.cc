#include "util/random.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

namespace rofs {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t v = rng.UniformInt(3, 8);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(RngTest, UniformIntUnbiasedAcrossBuckets) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.UniformInt(0, kBuckets - 1)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

struct MomentParams {
  const char* name;
  double mean;
  double stddev;
};

// Printed by gtest in test listings; without it gtest dumps the struct's
// raw bytes, which hold a string pointer and so change from run to run.
void PrintTo(const MomentParams& params, std::ostream* os) {
  *os << params.name;
}

class NormalMomentsTest : public ::testing::TestWithParam<MomentParams> {};

TEST_P(NormalMomentsTest, MatchesRequestedMoments) {
  const MomentParams p = GetParam();
  Rng rng(2024);
  constexpr int kDraws = 200'000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.Normal(p.mean, p.stddev);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, p.mean, std::max(0.02 * std::abs(p.mean), 0.02));
  EXPECT_NEAR(std::sqrt(var), p.stddev, 0.03 * p.stddev + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NormalMomentsTest,
    ::testing::Values(MomentParams{"unit", 0.0, 1.0},
                      MomentParams{"extent1M", 1024.0, 102.4},
                      MomentParams{"extent512K", 512.0, 51.2},
                      MomentParams{"negative_mean", -50.0, 5.0}),
    [](const ::testing::TestParamInfo<MomentParams>& info) {
      return info.param.name;
    });

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(31);
  constexpr int kDraws = 200'000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(100.0);
  EXPECT_NEAR(sum / kDraws, 100.0, 2.0);
}

TEST(RngTest, ExponentialAlwaysPositive) {
  Rng rng(31);
  for (int i = 0; i < 10'000; ++i) EXPECT_GT(rng.Exponential(5.0), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// The paper's extent ranges rely on N(mean, 0.1*mean): "most extents would
// fall in the range 716K to 1.3M" for a 1M mean. Check the 3-sigma mass.
TEST(RngTest, ExtentRangeSpreadMatchesPaper) {
  Rng rng(5);
  constexpr double kMean = 1024.0 * 1024.0;
  int inside = 0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.Normal(kMean, 0.1 * kMean);
    inside += v >= 716.0 * 1024.0 && v <= 1.3 * 1024.0 * 1024.0;
  }
  EXPECT_GT(inside / static_cast<double>(kDraws), 0.99);
}

TEST(SplitSeedTest, StreamZeroIsIdentity) {
  EXPECT_EQ(SplitSeed(1, 0), 1u);
  EXPECT_EQ(SplitSeed(0xDEADBEEF, 0), 0xDEADBEEFull);
}

TEST(SplitSeedTest, DerivationIsDeterministic) {
  EXPECT_EQ(SplitSeed(1, 7), SplitSeed(1, 7));
}

TEST(SplitSeedTest, StreamsAndBasesSeparate) {
  // Distinct streams of one base, and one stream across distinct bases,
  // must all land on distinct seeds.
  std::vector<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 64; ++stream) {
    seeds.push_back(SplitSeed(1, stream));
  }
  for (uint64_t base = 2; base <= 64; ++base) {
    seeds.push_back(SplitSeed(base, 1));
  }
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << " vs " << j;
    }
  }
}

TEST(SplitSeedTest, SplitStreamsAreUncorrelated) {
  Rng a(SplitSeed(9, 1)), b(SplitSeed(9, 2));
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace rofs
