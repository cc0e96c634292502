/**
 * @file
 * Protocol object reuse: reset() must restore a pristine state, so a
 * protocol instance driven through one run and reset produces exactly
 * the same results as a fresh instance.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "bus/protocol_checker.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "support/protocol_driver.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

class ResetReuseTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ResetReuseTest, ResetRestoresPristineState)
{
    auto protocol = ProtocolRegistry::builtin().fromSpec(GetParam())();

    const auto drive = [&](int n) {
        test::ProtocolDriver driver(*protocol, n); // driver resets
        std::vector<AgentId> order;
        driver.post(2, 0);
        driver.post(n, 0);
        order.push_back(driver.arbitrateAndServe(1));
        driver.post(1, 2);
        order.push_back(driver.arbitrateAndServe(3));
        order.push_back(driver.arbitrateAndServe(4));
        return order;
    };

    const auto first = drive(5);
    const auto again = drive(5);
    EXPECT_EQ(first, again) << GetParam();

    // Resetting to a different size also works.
    const auto bigger = drive(12);
    const auto bigger_again = drive(12);
    EXPECT_EQ(bigger, bigger_again) << GetParam();
    EXPECT_FALSE(protocol->wantsPass());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ResetReuseTest,
                         ::testing::Values("rr1", "rr2", "rr3", "fcfs1",
                                           "fcfs2", "hybrid", "fixed",
                                           "aap1", "aap2", "central-rr",
                                           "central-fcfs", "ticket"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

TEST(SettleTimingFuzzTest, CheckedProtocolsSurviveSettleTiming)
{
    // The fuzz dimension the main fuzz test does not cover: the
    // signal-level timing modes, which exercise settleRoundsForPass /
    // arbitrationLineCount on every pass.
    for (const char *key : {"rr1", "rr3", "fcfs2", "aap2"}) {
        for (auto mode : {BusParams::SettleMode::kDynamic,
                          BusParams::SettleMode::kWorstCase}) {
            ScenarioConfig config = equalLoadScenario(7, 2.0, 1.0);
            config.bus.settleTiming = true;
            config.bus.settleMode = mode;
            config.numBatches = 2;
            config.batchSize = 600;
            config.warmup = 300;
            auto base = ProtocolRegistry::builtin().fromSpec(key);
            const auto result = runScenario(config, [&] {
                return std::make_unique<ProtocolChecker>(base());
            });
            EXPECT_GT(result.throughput().value, 0.5) << key;
        }
    }
}

} // namespace
} // namespace busarb
