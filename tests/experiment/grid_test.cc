/**
 * @file
 * Tests for the parallel scenario grid: the JobPool itself, the
 * bit-identical-to-serial determinism guarantee, and the batch-local
 * Welford waiting-time statistics the runner now uses.
 */

#include <atomic>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/job_pool.hh"
#include "experiment/metrics.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

// ------------------------------------------------------------- JobPool

TEST(JobPoolTest, RunsEverySubmittedJob)
{
    JobPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(JobPoolTest, WaitIsReusableAcrossSubmissionRounds)
{
    JobPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { ++counter; });
        pool.wait();
        EXPECT_EQ(counter.load(), 10 * (round + 1));
    }
}

TEST(JobPoolTest, ResolveJobCountDefaultsToHardware)
{
    EXPECT_GE(resolveJobCount(0), 1);
    EXPECT_GE(resolveJobCount(-3), 1);
    EXPECT_EQ(resolveJobCount(7), 7);
}

// ----------------------------------------------------- grid determinism

ScenarioConfig
smallConfig(double load)
{
    ScenarioConfig config = equalLoadScenario(8, load, 1.0);
    config.numBatches = 3;
    config.batchSize = 400;
    config.warmup = 400;
    return config;
}

void
expectBitIdentical(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.protocolName, b.protocolName);
    EXPECT_EQ(a.numAgents, b.numAgents);
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        const BatchStats &ba = a.batches[i];
        const BatchStats &bb = b.batches[i];
        // Exact comparisons on purpose: the parallel path must produce
        // the very same doubles as the serial one, not merely close.
        EXPECT_EQ(ba.duration, bb.duration);
        EXPECT_EQ(ba.waitMean, bb.waitMean);
        EXPECT_EQ(ba.waitStddev, bb.waitStddev);
        EXPECT_EQ(ba.utilization, bb.utilization);
        EXPECT_EQ(ba.passes, bb.passes);
        EXPECT_EQ(ba.retryPasses, bb.retryPasses);
        EXPECT_EQ(ba.completions, bb.completions);
        EXPECT_EQ(ba.productive, bb.productive);
        EXPECT_EQ(ba.cycle, bb.cycle);
        EXPECT_EQ(ba.waitSum, bb.waitSum);
        EXPECT_EQ(ba.overlapSum, bb.overlapSum);
    }
}

TEST(ScenarioGridTest, ParallelRunIsBitIdenticalToSerial)
{
    std::vector<GridJob> grid;
    for (const char *key : {"rr1", "fcfs1", "aap1"}) {
        for (double load : {0.5, 2.0, 7.5})
            grid.push_back({smallConfig(load),
                            ProtocolRegistry::builtin().fromSpec(key)});
    }
    const auto serial = runScenarioGrid(grid, 1);
    const auto parallel = runScenarioGrid(grid, 4);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(parallel.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectBitIdentical(serial[i], parallel[i]);
}

TEST(ScenarioGridTest, ResultsComeBackInSubmissionOrder)
{
    std::vector<GridJob> grid;
    std::vector<std::string> expected;
    for (const char *key : {"rr1", "fcfs1", "aap1"}) {
        grid.push_back(
            {smallConfig(1.0), ProtocolRegistry::builtin().fromSpec(key)});
        expected.push_back(
            runScenario(
                smallConfig(1.0), ProtocolRegistry::builtin().fromSpec(key))
                .protocolName);
    }
    const auto results = runScenarioGrid(grid, 3);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].protocolName, expected[i]);
}

TEST(ScenarioGridTest, GridFillsPerScenarioTiming)
{
    std::vector<GridJob> grid{
        {smallConfig(1.0), ProtocolRegistry::builtin().fromSpec("rr1")}};
    const auto results = runScenarioGrid(grid, 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].elapsedMs, 0.0);
}

// --------------------------------------- batch-local wait statistics

TEST(BatchWaitStatsTest, StddevIsStableForLargeMagnitudeWaits)
{
    // Waits of 1e9, 1e9+1, 1e9+2 units: population variance 2/3. The
    // old cumulative-sums formula E[x^2] - E[x]^2 differences numbers
    // near 1e18, where double resolution is ~256 — the true variance
    // drowns completely (and the result can go negative).
    MetricsCollector collector(1);
    collector.beginBatch();
    const double base = 1.0e9;
    for (int k = 0; k < 3; ++k) {
        Request req;
        req.agent = 1;
        req.issued = 0;
        collector.onServiceEnd(req, unitsToTicks(base + k));
    }
    const RunningStats &stats = collector.batchWaitStats();
    EXPECT_EQ(stats.count(), 3u);
    EXPECT_NEAR(stats.mean(), base + 1.0, 1e-3);
    EXPECT_NEAR(stats.variancePopulation(), 2.0 / 3.0, 1e-6);

    // Document the failure mode this replaces: the naive formula over
    // the collector's cumulative sums cancels catastrophically and
    // loses most (here: all) of the true variance.
    const double naive_mean = collector.totalWaitSum() / 3.0;
    const double naive_var =
        collector.totalWaitSqSum() / 3.0 - naive_mean * naive_mean;
    EXPECT_GT(std::abs(naive_var - 2.0 / 3.0), 0.5);
}

TEST(BatchWaitStatsTest, BeginBatchResetsTheAccumulator)
{
    MetricsCollector collector(1);
    Request req;
    req.agent = 1;
    req.issued = 0;
    collector.onServiceEnd(req, unitsToTicks(2.0));
    collector.beginBatch();
    EXPECT_EQ(collector.batchWaitStats().count(), 0u);
    collector.onServiceEnd(req, unitsToTicks(3.0));
    EXPECT_EQ(collector.batchWaitStats().count(), 1u);
    EXPECT_DOUBLE_EQ(collector.batchWaitStats().mean(), 3.0);
    // Cumulative sums keep counting across batches.
    EXPECT_EQ(collector.totalCompletions(), 2u);
}

TEST(BatchWaitStatsTest, RunnerBatchesMatchWelfordStatistics)
{
    // End-to-end: per-batch stddev must be non-negative and finite on
    // a real run (the old path could silently clamp a negative
    // variance to zero).
    const auto result = runScenario(
        smallConfig(2.0), ProtocolRegistry::builtin().fromSpec("rr1"));
    for (const auto &batch : result.batches) {
        EXPECT_TRUE(std::isfinite(batch.waitStddev));
        EXPECT_GE(batch.waitStddev, 0.0);
        EXPECT_GT(batch.waitMean, 0.0);
    }
}

} // namespace
} // namespace busarb
