/**
 * @file
 * Operational laws: model-independent identities that must hold for
 * any correct closed-system simulation (Denning & Buzen style), plus
 * long-run stability checks.
 */

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

TEST(OperationalLawsTest, LittlesLawAcrossTheClosedSystem)
{
    // N = X * (R + Z): agents = throughput * (response + think). Holds
    // for every protocol, load, and CV, independent of distributional
    // assumptions.
    for (const char *key : {"rr1", "fcfs1", "aap1", "hybrid"}) {
        for (double load : {0.5, 1.5, 4.0}) {
            ScenarioConfig config = equalLoadScenario(10, load, 1.0);
            config.numBatches = 5;
            config.batchSize = 2000;
            config.warmup = 2000;
            const auto result =
                runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
            const double x = result.throughput().value;
            const double r = result.meanWait().value;
            const double z = config.agents[0].meanInterrequest;
            EXPECT_NEAR(10.0, x * (r + z), 10.0 * 0.02)
                << key << " load " << load;
        }
    }
}

TEST(OperationalLawsTest, UtilizationLawHolds)
{
    // U = X * S with S = 1 (deterministic service).
    ScenarioConfig config = equalLoadScenario(16, 1.2, 0.5);
    config.numBatches = 5;
    config.batchSize = 2000;
    config.warmup = 2000;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs2"));
    EXPECT_NEAR(result.utilization().value,
                result.throughput().value * 1.0, 3e-3);
}

TEST(OperationalLawsTest, LittlesLawWithLongerTransactions)
{
    // Same identity with a 2.5-unit transaction time.
    ScenarioConfig config = equalLoadScenario(8, 1.5, 1.0);
    config.bus.transactionTime = 2.5;
    // Re-derive think times for the longer service.
    for (auto &a : config.agents)
        a.meanInterrequest = interrequestForLoad(1.5 / 8.0, 2.5);
    config.numBatches = 5;
    config.batchSize = 1500;
    config.warmup = 1500;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const double x = result.throughput().value;
    const double r = result.meanWait().value;
    const double z = config.agents[0].meanInterrequest;
    EXPECT_NEAR(8.0, x * (r + z), 8.0 * 0.02);
    // And the utilization law with S = 2.5.
    EXPECT_NEAR(result.utilization().value, x * 2.5, 6e-3);
}

TEST(LongRunStabilityTest, SixtyFourAgentsHundredThousandCompletions)
{
    // A long saturated run: estimates stay tight and consistent.
    ScenarioConfig config = equalLoadScenario(64, 2.0, 1.0);
    config.numBatches = 10;
    config.batchSize = 10000;
    config.warmup = 10000;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(result.utilization().value, 1.0, 1e-3);
    // Saturated asymptote: W ~ N - Z with Z = 31.
    const double z = config.agents[0].meanInterrequest;
    EXPECT_NEAR(result.meanWait().value, 64.0 - z, 0.5);
    // Confidence intervals should be well under 1% of the mean.
    EXPECT_LT(result.meanWait().halfWidth,
              0.01 * result.meanWait().value);
}

} // namespace
} // namespace busarb
