/**
 * @file
 * Tests for the machine-repairman model, including the cross-check
 * against the full simulation.
 */

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "stats/machine_repairman.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

TEST(MachineRepairmanTest, SingleAgentClosedForm)
{
    // N = 1: utilization = S / (S + Z), response = S.
    const auto r = machineRepairman(1, 4.0, 1.0);
    EXPECT_DOUBLE_EQ(r.utilization, 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(r.throughput, 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(r.meanResponse, 1.0);
}

TEST(MachineRepairmanTest, TwoAgentHandComputation)
{
    // N = 2, Z = 1, S = 1: terms 1, 2, 2 -> p = {0.2, 0.4, 0.4}.
    const auto r = machineRepairman(2, 1.0, 1.0);
    EXPECT_NEAR(r.utilization, 0.8, 1e-12);
    EXPECT_NEAR(r.meanAtServer, 0.4 + 0.8, 1e-12);
    EXPECT_NEAR(r.throughput, 0.8, 1e-12);
    EXPECT_NEAR(r.meanResponse, 1.2 / 0.8, 1e-12);
}

TEST(MachineRepairmanTest, LittlesLawAcrossTheWholeSystem)
{
    // N = X * (R + Z) must hold exactly.
    for (int n : {3, 10, 40}) {
        for (double z : {1.0, 9.0}) {
            const auto r = machineRepairman(n, z, 1.0);
            EXPECT_NEAR(n, r.throughput * (r.meanResponse + z), 1e-9)
                << n << " " << z;
        }
    }
}

TEST(MachineRepairmanTest, SaturationAsymptote)
{
    // Heavy load: utilization -> 1 and R -> N*S - Z.
    const auto r = machineRepairman(20, 0.5, 1.0);
    EXPECT_GT(r.utilization, 0.999);
    EXPECT_NEAR(r.meanResponse, 20.0 * 1.0 - 0.5, 0.05);
}

TEST(MachineRepairmanTest, UtilizationMonotoneInN)
{
    double prev = 0.0;
    for (int n = 1; n <= 30; ++n) {
        const auto r = machineRepairman(n, 9.0, 1.0);
        EXPECT_GT(r.utilization, prev);
        prev = r.utilization;
    }
}

TEST(MachineRepairmanTest, DeathOnBadArguments)
{
    EXPECT_DEATH(machineRepairman(0, 1.0, 1.0), "at least one");
    EXPECT_DEATH(machineRepairman(2, 0.0, 1.0), "think");
    EXPECT_DEATH(machineRepairman(2, 1.0, -1.0), "service");
}

TEST(MachineRepairmanCrossCheck, SimulationBracketsTheModel)
{
    // The simulated bus serves deterministically (CV = 0 service) and
    // adds 0.5 exposed arbitration when idle, so against the
    // exponential-service model: utilization is close, and the
    // simulated response (minus the idle-bus arbitration component)
    // stays below the model's response, with both meeting at the
    // saturated asymptote.
    for (double load : {0.5, 1.5}) {
        ScenarioConfig config = equalLoadScenario(10, load, 1.0);
        config.numBatches = 5;
        config.batchSize = 2000;
        config.warmup = 2000;
        const auto sim =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs2"));
        const auto model = machineRepairman(
            10, config.agents[0].meanInterrequest, 1.0);
        EXPECT_NEAR(sim.utilization().value, model.utilization,
                    0.08) << load;
        // Deterministic service halves queueing variance contribution:
        // the simulated mean response must not exceed the analytic
        // exponential-service response by more than the arbitration
        // overhead.
        EXPECT_LT(sim.meanWait().value,
                  model.meanResponse + 0.55) << load;
    }
    // Saturated: both pin to N*S - Z.
    ScenarioConfig config = equalLoadScenario(10, 5.0, 1.0);
    config.numBatches = 5;
    config.batchSize = 2000;
    config.warmup = 2000;
    const auto sim =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs2"));
    const auto model =
        machineRepairman(10, config.agents[0].meanInterrequest, 1.0);
    EXPECT_NEAR(sim.meanWait().value, model.meanResponse, 0.3);
}

} // namespace
} // namespace busarb
