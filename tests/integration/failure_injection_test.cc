/**
 * @file
 * Failure injection: agents dropping off the bus mid-run. A correct
 * arbitration protocol must keep serving the survivors — dead agents
 * must not wedge a batch, a fairness release, the recorded-winner
 * register, or the FCFS counters.
 */

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

class DropoutTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DropoutTest, SurvivorsKeepFullService)
{
    // Half the agents die after 300 requests each; the run must still
    // complete and the survivors must absorb the freed bandwidth.
    ScenarioConfig config = equalLoadScenario(8, 4.0, 1.0);
    for (std::size_t i = 0; i < config.agents.size(); i += 2)
        config.agents[i].stopAfterRequests = 300;
    config.numBatches = 4;
    config.batchSize = 1200;
    config.warmup = 1200;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(GetParam()));
    ASSERT_EQ(result.batches.size(), 4u);
    // By the last batch the odd agents carry the whole load.
    const auto &last = result.batches.back();
    std::uint64_t dead_completions = 0;
    std::uint64_t live_completions = 0;
    for (std::size_t i = 0; i < last.completions.size(); ++i)
        ((i % 2 == 0) ? dead_completions : live_completions) +=
            last.completions[i];
    EXPECT_EQ(dead_completions, 0u) << GetParam();
    EXPECT_GT(live_completions, 0u);
    // The bus stays saturated: four survivors at per-agent load 0.5
    // offer 2.0 total.
    EXPECT_GT(last.utilization, 0.95) << GetParam();
}

TEST_P(DropoutTest, LoneSurvivorIsStillServed)
{
    // Everyone but agent 1 dies early: the protocol must not require
    // the dead agents' participation (e.g. for a fairness release or
    // the round-robin wrap).
    ScenarioConfig config = equalLoadScenario(6, 3.0, 1.0);
    for (std::size_t i = 1; i < config.agents.size(); ++i)
        config.agents[i].stopAfterRequests = 50;
    config.numBatches = 3;
    config.batchSize = 500;
    config.warmup = 300;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(GetParam()));
    const auto &last = result.batches.back();
    EXPECT_GT(last.completions[0], 0u) << GetParam();
    // A lone closed agent cycles think 1 + wait 1.5: half the time on
    // the bus.
    EXPECT_NEAR(last.utilization, 0.4, 0.15) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DropoutTest,
                         ::testing::Values("rr1", "rr2", "rr3", "fcfs1",
                                           "fcfs2", "hybrid", "aap1",
                                           "aap2", "central-rr",
                                           "central-fcfs", "ticket"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
} // namespace busarb
