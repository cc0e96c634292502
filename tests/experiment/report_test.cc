/**
 * @file
 * Tests for the report formatting module.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/report.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

TEST(DescribeScenarioTest, MentionsTheKeyParameters)
{
    ScenarioConfig config = equalLoadScenario(10, 2.0, 0.5);
    const std::string text = describeScenario(config);
    EXPECT_NE(text.find("10 agents"), std::string::npos);
    EXPECT_NE(text.find("2.00"), std::string::npos);
    EXPECT_NE(text.find("cv 0.50"), std::string::npos);
    EXPECT_NE(text.find("arbitration 0.5 overlapped"), std::string::npos);
    EXPECT_NE(text.find("10 batches x 8000"), std::string::npos);
}

TEST(DescribeScenarioTest, MentionsSettleTimingAndOutstanding)
{
    ScenarioConfig config = equalLoadScenario(8, 1.0, 1.0);
    config.bus.settleTiming = true;
    config.bus.settleMode = BusParams::SettleMode::kWorstCase;
    for (auto &a : config.agents)
        a.maxOutstanding = 4;
    const std::string text = describeScenario(config);
    EXPECT_NE(text.find("settle-timed (worst-case"), std::string::npos);
    EXPECT_NE(text.find("4 outstanding/agent"), std::string::npos);
}

TEST(ReportTest, SummaryContainsTheMeasures)
{
    ScenarioConfig config = equalLoadScenario(6, 1.5, 1.0);
    config.numBatches = 3;
    config.batchSize = 500;
    config.warmup = 500;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    std::ostringstream os;
    printSummary(result, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("RR (impl 1"), std::string::npos);
    EXPECT_NE(out.find("mean wait W"), std::string::npos);
    EXPECT_NE(out.find("fairness ratio"), std::string::npos);
    EXPECT_NE(out.find("±"), std::string::npos);
}

TEST(ReportTest, ComparisonListsEveryProtocol)
{
    ScenarioConfig config = equalLoadScenario(6, 1.5, 1.0);
    config.numBatches = 3;
    config.batchSize = 500;
    config.warmup = 500;
    std::vector<ScenarioResult> results;
    results.push_back(
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1")));
    results.push_back(
        runScenario(config, ProtocolRegistry::builtin().fromSpec("aap1")));
    std::ostringstream os;
    printComparison(results, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("RR (impl 1"), std::string::npos);
    EXPECT_NE(out.find("AAP-1"), std::string::npos);
    EXPECT_NE(out.find("retries"), std::string::npos);
}

TEST(ReportDeathTest, EmptyComparison)
{
    std::ostringstream os;
    EXPECT_DEATH(printComparison({}, os), "nothing to compare");
}

} // namespace
} // namespace busarb
