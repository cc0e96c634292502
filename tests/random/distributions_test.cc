/**
 * @file
 * Unit and property tests for the inter-request time distributions.
 */

#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "random/distributions.hh"
#include "stats/welford.hh"

namespace busarb {
namespace {

/** Sample `n` values and return running statistics. */
RunningStats
sampleStats(const Distribution &d, int n, std::uint64_t seed = 1234)
{
    Rng rng(seed);
    RunningStats rs;
    for (int i = 0; i < n; ++i)
        rs.add(d.sample(rng));
    return rs;
}

TEST(DeterministicTest, AlwaysReturnsValue)
{
    DeterministicDistribution d(3.25);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(d.sample(rng), 3.25);
    EXPECT_DOUBLE_EQ(d.mean(), 3.25);
    EXPECT_DOUBLE_EQ(d.cv(), 0.0);
}

TEST(DeterministicTest, ZeroIsAllowed)
{
    DeterministicDistribution d(0.0);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(d.sample(rng), 0.0);
}

TEST(ExponentialTest, MeanAndCvMatch)
{
    ExponentialDistribution d(2.5);
    const auto rs = sampleStats(d, 400000);
    EXPECT_NEAR(rs.mean(), 2.5, 0.02);
    EXPECT_NEAR(rs.stddev() / rs.mean(), 1.0, 0.02);
    EXPECT_DOUBLE_EQ(d.cv(), 1.0);
}

TEST(ExponentialTest, SamplesAreNonNegative)
{
    ExponentialDistribution d(1.0);
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(d.sample(rng), 0.0);
}

// gtest names each case after a byte dump of this struct. Both fields
// are eight bytes wide, so it has no padding and the dump (hence the
// test name) is the same on every run.
struct ErlangCase
{
    std::int64_t stages;
    double mean;
};

class ErlangParamTest : public ::testing::TestWithParam<ErlangCase>
{
};

TEST_P(ErlangParamTest, MeanAndCvMatchTheory)
{
    const auto param = GetParam();
    ErlangDistribution d(static_cast<int>(param.stages), param.mean);
    const auto rs = sampleStats(d, 300000);
    EXPECT_NEAR(rs.mean(), param.mean, 0.02 * param.mean);
    const double expected_cv =
        1.0 / std::sqrt(static_cast<double>(param.stages));
    EXPECT_NEAR(rs.stddev() / rs.mean(), expected_cv, 0.03);
    EXPECT_DOUBLE_EQ(d.cv(), expected_cv);
}

INSTANTIATE_TEST_SUITE_P(Stages, ErlangParamTest,
                         ::testing::Values(ErlangCase{1, 1.0},
                                           ErlangCase{4, 2.0},
                                           ErlangCase{9, 6.4},
                                           ErlangCase{16, 0.5},
                                           ErlangCase{100, 9.5}));

TEST(ErlangTest, OneStageEqualsExponentialInDistribution)
{
    ErlangDistribution e1(1, 3.0);
    const auto rs = sampleStats(e1, 300000);
    EXPECT_NEAR(rs.stddev() / rs.mean(), 1.0, 0.02);
}

TEST(HyperExponentialTest, MeanAndCvMatch)
{
    HyperExponentialDistribution d(2.0, 2.5);
    const auto rs = sampleStats(d, 600000);
    EXPECT_NEAR(rs.mean(), 2.0, 0.05);
    EXPECT_NEAR(rs.stddev() / rs.mean(), 2.5, 0.1);
}

class FactoryCvTest : public ::testing::TestWithParam<double>
{
};

TEST_P(FactoryCvTest, RealizedCvTracksRequestedCv)
{
    // The paper's CV axis for Table 4.5: the factory must realize each of
    // these to the nearest achievable Erlang CV.
    const double cv = GetParam();
    const auto d = makeDistributionByCv(5.0, cv);
    const auto rs = sampleStats(*d, 300000);
    EXPECT_NEAR(rs.mean(), 5.0, 0.1);
    const double realized =
        rs.count() > 1 ? rs.stddev() / rs.mean() : 0.0;
    // Erlang quantization: k = round(1/cv^2) gives cv' = 1/sqrt(k).
    EXPECT_NEAR(realized, d->cv(), 0.03);
    EXPECT_NEAR(d->cv(), cv, cv * 0.15 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PaperCvValues, FactoryCvTest,
                         ::testing::Values(0.0, 0.10, 0.25, 0.33, 0.50,
                                           1.0));

TEST(FactoryTest, SelectsExpectedTypes)
{
    EXPECT_NE(dynamic_cast<DeterministicDistribution *>(
                  makeDistributionByCv(1.0, 0.0).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ExponentialDistribution *>(
                  makeDistributionByCv(1.0, 1.0).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<ErlangDistribution *>(
                  makeDistributionByCv(1.0, 0.5).get()),
              nullptr);
    EXPECT_NE(dynamic_cast<HyperExponentialDistribution *>(
                  makeDistributionByCv(1.0, 2.0).get()),
              nullptr);
}

TEST(FactoryTest, ErlangStageCountFromCv)
{
    const auto d = makeDistributionByCv(1.0, 0.5);
    const auto *erlang = dynamic_cast<ErlangDistribution *>(d.get());
    ASSERT_NE(erlang, nullptr);
    EXPECT_EQ(erlang->stages(), 4);

    const auto d2 = makeDistributionByCv(1.0, 0.25);
    const auto *erlang2 = dynamic_cast<ErlangDistribution *>(d2.get());
    ASSERT_NE(erlang2, nullptr);
    EXPECT_EQ(erlang2->stages(), 16);
}

TEST(FactoryTest, ZeroMeanIsDeterministicZero)
{
    const auto d = makeDistributionByCv(0.0, 1.0);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(d->sample(rng), 0.0);
}

TEST(CloneTest, ClonesAreEquivalent)
{
    const auto original = makeDistributionByCv(2.0, 0.33);
    const auto copy = original->clone();
    EXPECT_EQ(original->describe(), copy->describe());
    EXPECT_DOUBLE_EQ(original->mean(), copy->mean());
    EXPECT_DOUBLE_EQ(original->cv(), copy->cv());
}

TEST(DescribeTest, NamesAreInformative)
{
    EXPECT_NE(makeDistributionByCv(1.0, 0.0)->describe().find(
                  "Deterministic"),
              std::string::npos);
    EXPECT_NE(makeDistributionByCv(1.0, 1.0)->describe().find(
                  "Exponential"),
              std::string::npos);
    EXPECT_NE(makeDistributionByCv(1.0, 0.5)->describe().find("Erlang"),
              std::string::npos);
}

TEST(QuantileTest, ExponentialMedianAndTail)
{
    // Median = ln(2) * mean; P(X > 3 * mean) = e^-3.
    ExponentialDistribution d(2.0);
    Rng rng(55);
    const int n = 200000;
    int below_median = 0;
    int above_tail = 0;
    for (int i = 0; i < n; ++i) {
        const double x = d.sample(rng);
        if (x <= 2.0 * std::log(2.0))
            ++below_median;
        if (x > 6.0)
            ++above_tail;
    }
    EXPECT_NEAR(static_cast<double>(below_median) / n, 0.5, 0.01);
    EXPECT_NEAR(static_cast<double>(above_tail) / n, std::exp(-3.0),
                0.003);
}

TEST(QuantileTest, ErlangConcentratesAroundTheMean)
{
    // Erlang-16 with mean 4: P(|X - 4| < 2) should be large (~95%),
    // unlike the exponential with the same mean (~47%).
    ErlangDistribution erlang(16, 4.0);
    ExponentialDistribution expo(4.0);
    Rng rng(66);
    const int n = 100000;
    int erlang_close = 0;
    int expo_close = 0;
    for (int i = 0; i < n; ++i) {
        if (std::abs(erlang.sample(rng) - 4.0) < 2.0)
            ++erlang_close;
        if (std::abs(expo.sample(rng) - 4.0) < 2.0)
            ++expo_close;
    }
    EXPECT_GT(static_cast<double>(erlang_close) / n, 0.90);
    EXPECT_LT(static_cast<double>(expo_close) / n, 0.55);
}

TEST(QuantileTest, HyperExponentialHasAHeavyTail)
{
    // Same mean as the exponential but far more mass beyond 5x mean.
    HyperExponentialDistribution h2(1.0, 3.0);
    ExponentialDistribution expo(1.0);
    Rng rng(77);
    const int n = 200000;
    int h2_tail = 0;
    int expo_tail = 0;
    for (int i = 0; i < n; ++i) {
        if (h2.sample(rng) > 5.0)
            ++h2_tail;
        if (expo.sample(rng) > 5.0)
            ++expo_tail;
    }
    EXPECT_GT(h2_tail, 3 * expo_tail);
}

TEST(ParetoTest, SampleMeanMatchesForFiniteVarianceTail)
{
    // alpha = 3: finite variance, so the sample mean converges fast.
    ParetoDistribution d(2.0, 3.0);
    const auto rs = sampleStats(d, 400000);
    EXPECT_NEAR(rs.mean(), 2.0, 0.03);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_NEAR(d.cv(), 1.0 / std::sqrt(3.0), 1e-12);
}

TEST(ParetoTest, SamplesNeverFallBelowScale)
{
    // X = x_m * U^(-1/alpha) >= x_m = mean * (alpha - 1) / alpha.
    ParetoDistribution d(1.0, 1.5);
    const double x_m = 1.0 * 0.5 / 1.5;
    Rng rng(31);
    for (int i = 0; i < 100000; ++i)
        EXPECT_GE(d.sample(rng), x_m);
}

TEST(ParetoTest, InfiniteVarianceRegimeIsHeavierThanExponential)
{
    // alpha in (1, 2] has infinite variance: far more tail mass than
    // an exponential with the same mean.
    ParetoDistribution pareto(1.0, 1.5);
    ExponentialDistribution expo(1.0);
    EXPECT_TRUE(std::isinf(pareto.cv()));
    Rng rng(88);
    const int n = 200000;
    int pareto_tail = 0;
    int expo_tail = 0;
    for (int i = 0; i < n; ++i) {
        if (pareto.sample(rng) > 8.0)
            ++pareto_tail;
        if (expo.sample(rng) > 8.0)
            ++expo_tail;
    }
    EXPECT_GT(pareto_tail, 3 * expo_tail);
}

TEST(DistributionDeathTest, InvalidParametersPanic)
{
    EXPECT_DEATH(DeterministicDistribution(-1.0), "negative");
    EXPECT_DEATH(ExponentialDistribution(0.0), "non-positive");
    EXPECT_DEATH(ErlangDistribution(0, 1.0), "stage count");
    EXPECT_DEATH(ErlangDistribution(3, -2.0), "non-positive");
    EXPECT_DEATH(ParetoDistribution(0.0, 1.5), "non-positive");
    EXPECT_DEATH(ParetoDistribution(1.0, 1.0), "tail index");
}

} // namespace
} // namespace busarb
