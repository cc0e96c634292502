/**
 * @file
 * Protocol fuzzing: every protocol in the registry is wrapped in the
 * contract-checking decorator and driven through the full bus engine
 * with randomized workloads (mixed loads, CVs, agent counts, multiple
 * outstanding requests). Any lifecycle violation, ghost winner, double
 * service, or livelock panics and fails the test.
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "bus/protocol_checker.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "random/rng.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

class ProtocolFuzzTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProtocolFuzzTest, RandomWorkloadsRespectTheContract)
{
    const std::string key = GetParam();
    Rng rng(0xF00Du + std::hash<std::string>{}(key));
    for (int trial = 0; trial < 6; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(12));
        // Per-agent load 0.15 .. 0.75 across trials (saturates larger
        // systems while staying valid for tiny ones).
        const double per_agent = 0.15 + 0.12 * static_cast<double>(trial);
        const double cv =
            (trial % 3 == 0) ? 0.0 : (trial % 3 == 1) ? 0.5 : 1.0;
        ScenarioConfig config = equalLoadScenario(n, per_agent * n, cv);
        // Heterogeneous think times to vary interleavings.
        for (std::size_t i = 0; i < config.agents.size(); ++i) {
            config.agents[i].meanInterrequest *=
                0.5 + 0.1 * static_cast<double>(i % 7);
            if (key == "fcfs2" && i % 3 == 0)
                config.agents[i].maxOutstanding = 2;
        }
        config.numBatches = 2;
        config.batchSize = 600;
        config.warmup = 200;
        config.seed = rng.next();
        auto base_factory = ProtocolRegistry::builtin().fromSpec(key);
        const auto result = runScenario(config, [&] {
            return std::make_unique<ProtocolChecker>(base_factory());
        });
        // Sanity on top of the checker: measurement completed.
        EXPECT_EQ(result.batches.size(), 2u) << key << " trial " << trial;
        EXPECT_GT(result.throughput().value, 0.0);
        EXPECT_LE(result.utilization().value, 1.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolFuzzTest,
    ::testing::Values("rr1", "rr2", "rr3", "fcfs1", "fcfs2", "hybrid",
                      "fixed", "aap1", "aap2", "central-rr",
                      "central-fcfs", "ticket"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

class PriorityFuzzTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PriorityFuzzTest, MixedPriorityTrafficRespectsTheContract)
{
    // Every priority-capable configuration, fuzzed with a mix of
    // urgent and normal requests under the checking decorator.
    const std::string spec = GetParam();
    Rng rng(0xBEEF + std::hash<std::string>{}(spec));
    for (int trial = 0; trial < 4; ++trial) {
        const int n = 3 + static_cast<int>(rng.below(8));
        ScenarioConfig config =
            equalLoadScenario(n, (0.2 + 0.2 * trial) * n,
                              trial % 2 == 0 ? 1.0 : 0.5);
        for (std::size_t i = 0; i < config.agents.size(); ++i)
            config.agents[i].priorityFraction = 0.1 + 0.2 * (i % 3);
        config.numBatches = 2;
        config.batchSize = 600;
        config.warmup = 200;
        config.seed = rng.next();
        auto base = ProtocolRegistry::builtin().fromSpec(spec);
        const auto result = runScenario(config, [&] {
            return std::make_unique<ProtocolChecker>(base());
        });
        EXPECT_GT(result.throughput().value, 0.0) << spec;
        EXPECT_LE(result.utilization().value, 1.0 + 1e-9) << spec;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PriorityCapable, PriorityFuzzTest,
    ::testing::Values("rr1:priority",
                      "rr1:priority,rr-within-class=false",
                      "fcfs1:priority,counting=matched",
                      "fcfs1:priority,counting=always",
                      "fcfs2:priority,counting=dual",
                      "fcfs2:priority,counting=always,wrap,bits=3",
                      "fixed:priority", "aap1:priority",
                      "aap2:priority"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == ':' || c == ',' || c == '=' || c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace busarb
