/**
 * @file
 * Consistency tests for the ScenarioResult estimate helpers.
 */

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

ScenarioConfig
config(double load = 1.5, double overlap = 0.0)
{
    ScenarioConfig c = equalLoadScenario(6, load, 1.0);
    c.numBatches = 5;
    c.batchSize = 1200;
    c.warmup = 1200;
    if (overlap > 0.0)
        setOverlapLimit(c, overlap);
    return c;
}

TEST(EstimatesTest, AgentMeanWaitsAverageToGlobalMean)
{
    const auto result =
        runScenario(config(), ProtocolRegistry::builtin().fromSpec("rr1"));
    // RR serves everyone equally, so the completion-weighted average of
    // per-agent means equals the global mean; with equal rates the
    // plain average is close too.
    double sum = 0.0;
    for (AgentId a = 1; a <= 6; ++a)
        sum += result.agentMeanWait(a).value;
    EXPECT_NEAR(sum / 6.0, result.meanWait().value,
                0.02 * result.meanWait().value);
}

TEST(EstimatesTest, AgentProductivityMatchesThinkFraction)
{
    // Without overlap, productivity = E[think] / (E[think] + E[W]).
    const auto result =
        runScenario(config(), ProtocolRegistry::builtin().fromSpec("rr1"));
    const double z = interrequestForLoad(1.5 / 6.0);
    const double w = result.meanWait().value;
    for (AgentId a = 1; a <= 6; ++a) {
        EXPECT_NEAR(result.agentProductivity(a).value, z / (z + w),
                    0.03)
            << a;
    }
}

TEST(EstimatesTest, FullOverlapMakesProductivityOne)
{
    // With an overlap limit far above any wait, every waiting unit is
    // overlapped with useful work: productivity -> 1 and residual
    // wait -> 0.
    const auto result = runScenario(
        config(1.5, 1000.0), ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_NEAR(result.productivity().value, 1.0, 1e-9);
    EXPECT_NEAR(result.residualWait().value, 0.0, 1e-9);
}

TEST(EstimatesTest, ZeroOverlapResidualEqualsMeanWait)
{
    const auto result =
        runScenario(config(), ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(result.residualWait().value, result.meanWait().value,
                1e-9);
}

TEST(EstimatesTest, PartialOverlapBracketsResidual)
{
    const double v = 3.0;
    const auto result = runScenario(
        config(1.5, v), ProtocolRegistry::builtin().fromSpec("fcfs1"));
    const double w = result.meanWait().value;
    const double residual = result.residualWait().value;
    // E[max(W - v, 0)] lies between max(E[W] - v, 0) (Jensen) and E[W].
    EXPECT_GE(residual, w - v - 1e-9);
    EXPECT_LE(residual, w);
    EXPECT_GT(residual, 0.0);
}

TEST(EstimatesTest, WaitPercentilesBracketTheMean)
{
    auto c = config(2.0);
    c.collectHistogram = true;
    const auto result =
        runScenario(c, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    const double median = result.waitPercentile(0.5);
    const double p95 = result.waitPercentile(0.95);
    EXPECT_LT(result.waitPercentile(0.05), median);
    EXPECT_LT(median, p95);
    EXPECT_NEAR(median, result.meanWait().value,
                result.waitStddev().value);
}

TEST(EstimatesDeathTest, PercentileWithoutHistogram)
{
    const auto result =
        runScenario(config(), ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_DEATH(result.waitPercentile(0.5), "collectHistogram");
}

TEST(EstimatesDeathTest, OutOfRangeAgents)
{
    const auto result =
        runScenario(config(), ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_DEATH(result.agentMeanWait(0), "out of range");
    EXPECT_DEATH(result.agentMeanWait(7), "out of range");
    EXPECT_DEATH(result.agentProductivity(99), "out of range");
    EXPECT_DEATH(result.agentThroughput(-1), "out of range");
}

} // namespace
} // namespace busarb
