/**
 * @file
 * End-to-end pins for the run-health telemetry: the convergence monitor
 * must pass a paper-spec run (Section 4.1's 10 batches x 8000
 * completions, 90% Student-t intervals "within 5%") and must flag a
 * deliberately starved one (tiny batches on a high-CV workload). Also
 * pins the JobPool-facing determinism of the snapshot stream and the
 * profiler's deterministic counters.
 */

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "sim/profiling.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

TEST(RunHealthIntegrationTest, PaperSpecRunConverges)
{
    // The paper's measurement recipe on its Table 4.1 base point
    // (10 agents, total load 2.0): the monitor must agree that this is
    // an adequately converged run.
    ScenarioConfig config = equalLoadScenario(10, 2.0, 1.0);
    config.numBatches = 10;
    config.batchSize = 8000;
    config.warmup = 8000;
    config.tuning.health = true;
    const ScenarioResult r =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    ASSERT_TRUE(r.health.enabled);
    EXPECT_EQ(r.health.batches, 10u);
    EXPECT_EQ(r.health.verdict, ConvergenceVerdict::kConverged)
        << "paper-spec run judged " << r.health.verdictLabel()
        << " (rel_hw=" << r.health.waitRelHalfWidth
        << ", lag1=" << r.health.waitLag1 << ")";
    // "Within 5%" with a wide margin at this length.
    EXPECT_LE(r.health.waitRelHalfWidth, 0.05);
}

TEST(RunHealthIntegrationTest, StarvedRunIsFlagged)
{
    // Deliberately inadequate: 5 batches of 50 completions on a CV=3
    // arrival process. The interval cannot tighten to 5% at this
    // length; the monitor must refuse to call it converged.
    ScenarioConfig config = equalLoadScenario(10, 2.0, 3.0);
    config.numBatches = 5;
    config.batchSize = 50;
    config.warmup = 1000;
    config.tuning.health = true;
    const ScenarioResult r =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    ASSERT_TRUE(r.health.enabled);
    EXPECT_NE(r.health.verdict, ConvergenceVerdict::kConverged)
        << "starved run judged converged (rel_hw="
        << r.health.waitRelHalfWidth << ")";
    EXPECT_GT(r.health.waitRelHalfWidth, 0.05);
}

TEST(RunHealthIntegrationTest, DisabledMonitorLeavesResultEmpty)
{
    ScenarioConfig config = equalLoadScenario(4, 1.0, 1.0);
    config.numBatches = 2;
    config.batchSize = 100;
    config.warmup = 0;
    const ScenarioResult r =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_FALSE(r.health.enabled);
    EXPECT_TRUE(r.healthSnapshots.empty());
    EXPECT_FALSE(r.profile.enabled);
    EXPECT_EQ(r.profile.eventsExecuted, 0u);
}

TEST(RunHealthIntegrationTest, SnapshotsAndMetricsAreDeterministic)
{
    // The property check_determinism.sh verifies across processes,
    // pinned here at the library layer: identical configs produce
    // byte-identical health snapshot streams and identical health.*
    // metric values.
    ScenarioConfig config = equalLoadScenario(6, 1.5, 1.0);
    config.numBatches = 4;
    config.batchSize = 300;
    config.warmup = 300;
    config.tuning.healthSnapshots = true;
    config.tuning.health = true;
    const ScenarioResult a =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const ScenarioResult b =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    ASSERT_FALSE(a.healthSnapshots.empty());
    EXPECT_EQ(a.healthSnapshots, b.healthSnapshots);
    EXPECT_EQ(a.health.verdict, b.health.verdict);
    EXPECT_EQ(a.health.batches, 4u);
    // One snapshot line per batch.
    std::size_t lines = 0;
    for (char c : a.healthSnapshots)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 4u);
}

TEST(RunHealthIntegrationTest, ProfilerCountersMatchRun)
{
    ScenarioConfig config = equalLoadScenario(6, 1.5, 1.0);
    config.numBatches = 3;
    config.batchSize = 200;
    config.warmup = 200;
    config.profile = true;
    const ScenarioResult a =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const ScenarioResult b =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    // Simulation-derived counters are deterministic run to run (the
    // wall-clock fields are host noise and deliberately not compared).
    EXPECT_EQ(a.profile.eventsExecuted, b.profile.eventsExecuted);
    EXPECT_EQ(a.profile.arbitrationPasses, b.profile.arbitrationPasses);
    EXPECT_EQ(a.profile.retryPasses, b.profile.retryPasses);
    EXPECT_GT(a.profile.eventsExecuted, 0u);
    // At least warmup 200 + 3 x 200 measured completions.
    EXPECT_GE(a.profile.completions, 800u);
    EXPECT_EQ(a.profile.completions, b.profile.completions);
#if BUSARB_PROFILING_ENABLED
    EXPECT_TRUE(a.profile.enabled);
    EXPECT_GT(a.profile.maxQueueDepth, 0u);
    std::uint64_t histogram_total = 0;
    for (std::uint64_t bucket : a.profile.queueDepthLog2)
        histogram_total += bucket;
    EXPECT_GT(histogram_total, 0u);
#endif
}

} // namespace
} // namespace busarb
