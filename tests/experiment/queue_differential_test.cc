/**
 * @file
 * Full-stack differential test for the event-queue policy seam: the
 * same scenarios pushed through the calendar and the reference heap
 * kernel must produce byte-identical artifacts — every trace record,
 * metric, and batch statistic, not just the summary numbers. This is
 * the determinism contract docs/KERNEL.md promises.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

std::string
metricsJson(const ScenarioResult &result)
{
    std::ostringstream os;
    result.metrics.writeJson(os);
    return os.str();
}

void
expectIdenticalRuns(ScenarioConfig config, const std::string &protocol)
{
    config.captureBinaryTrace = true;
    config.eventQueuePolicy = EventQueuePolicy::kCalendar;
    const auto calendar =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(protocol));
    config.eventQueuePolicy = EventQueuePolicy::kHeap;
    const auto heap =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(protocol));

    // Byte-identical event trace: same transactions at the same ticks
    // in the same order.
    ASSERT_FALSE(calendar.binaryTrace.empty());
    EXPECT_EQ(calendar.binaryTrace, heap.binaryTrace);

    // Identical metrics tree (bus.*, agent.NN.*, wait.*).
    EXPECT_EQ(metricsJson(calendar), metricsJson(heap));

    // Identical batch statistics (bit-exact, not approximately equal).
    ASSERT_EQ(calendar.batches.size(), heap.batches.size());
    for (std::size_t b = 0; b < calendar.batches.size(); ++b) {
        EXPECT_EQ(calendar.batches[b].waitMean, heap.batches[b].waitMean)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].duration, heap.batches[b].duration)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].completions,
                  heap.batches[b].completions)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].passes, heap.batches[b].passes)
            << "batch " << b;
    }
}

TEST(QueueDifferentialTest, Table45JustMissScenarioIsIdentical)
{
    // The paper's most tie-sensitive experiment: Table 4.5's "just
    // miss" workload only reproduces when same-tick events resolve in
    // exactly the contractual (tick, priority, id) order, so it is the
    // sharpest full-stack probe of the queue ordering.
    ScenarioConfig config = worstCaseRrScenario(10, 0.0);
    config.numBatches = 5;
    config.batchSize = 1500;
    config.warmup = 1500;
    expectIdenticalRuns(config, "rr1");
}

TEST(QueueDifferentialTest, Table45ResultStillHoldsOnBothKernels)
{
    // And the headline number itself: the slow agent is served every
    // other cycle (throughput ratio ~0.5) on either kernel.
    ScenarioConfig config = worstCaseRrScenario(10, 0.0);
    config.numBatches = 5;
    config.batchSize = 1500;
    config.warmup = 1500;
    for (const auto policy :
         {EventQueuePolicy::kCalendar, EventQueuePolicy::kHeap}) {
        config.eventQueuePolicy = policy;
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        EXPECT_NEAR(result.throughputRatio(1, 2).value, 0.5, 0.05);
    }
}

TEST(QueueDifferentialTest, StochasticFcfsScenarioIsIdentical)
{
    // A stochastic workload exercises bucket spreading and calendar
    // resizes far more than the deterministic worst case does.
    ScenarioConfig config = equalLoadScenario(8, 2.0);
    config.numBatches = 3;
    config.batchSize = 800;
    config.warmup = 400;
    expectIdenticalRuns(config, "fcfs1");
}

TEST(QueueDifferentialTest, TwentyAgentWorkloadIsIdentical)
{
    // The acceptance-gate workload (20 agents) through both kernels.
    ScenarioConfig config = equalLoadScenario(20, 2.0);
    config.numBatches = 3;
    config.batchSize = 800;
    config.warmup = 400;
    expectIdenticalRuns(config, "rr1");
}

} // namespace
} // namespace busarb
