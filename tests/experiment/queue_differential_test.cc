/**
 * @file
 * Full-stack differential test for the event-queue policy seam: the
 * same scenarios pushed through the calendar and the reference heap
 * kernel must produce byte-identical artifacts — every trace record,
 * metric, and batch statistic, not just the summary numbers. This is
 * the determinism contract docs/KERNEL.md promises.
 *
 * The heap is the in-binary reference kernel, selected only through
 * ScenarioConfig::eventQueuePolicy. The sweep cases run the tools'
 * grids (the closed 3 x 3 sweep, the two-protocol snapshot run, the
 * MMPP open-loop sweep, and a trace replay) through the same cell
 * assembly as busarb_sweep and compare the bytes the tools would
 * write: summary CSV rows, trace chunks, the merged metrics file, and
 * snapshot JSONL.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/csv.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/sweep_cells.hh"
#include "support/temp_path.hh"
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
    config.tuning.captureTrace = true;
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

/** The bytes a sweep writes, as busarb_sweep lays them out. */
struct SweepArtifacts
{
    std::string csv;
    std::string trace;
    std::string metrics;
    std::string snapshots;
};

SweepArtifacts
runSweep(const ScenarioSpec &spec, const SweepTuning &tuning,
         EventQueuePolicy policy)
{
    std::vector<GridJob> grid =
        buildSweepGrid(spec, tuning, "queue_differential_test");
    for (GridJob &job : grid)
        job.config.eventQueuePolicy = policy;
    const std::vector<ScenarioResult> results = runScenarioGrid(grid, 4);

    SweepArtifacts out;
    std::ostringstream csv;
    writeSummaryCsvHeader(csv);
    MetricsRegistry merged;
    for (std::size_t cell = 0; cell < results.size(); ++cell) {
        const ScenarioResult &r = results[cell];
        const std::string label = "load=" + spec.cellLoadToken(cell);
        writeSummaryCsvRow(r, label, csv);
        out.trace.append(r.binaryTrace.begin(), r.binaryTrace.end());
        merged.mergeFrom(r.metrics, label + "." +
                                        spec.cellProtocolSpec(cell) +
                                        ".");
        out.snapshots += r.fairnessSnapshots + r.healthSnapshots;
    }
    merged.setAnnotation("scenario.spec", spec.format());
    std::ostringstream metrics;
    merged.writeCsv(metrics);
    out.csv = csv.str();
    out.metrics = metrics.str();
    return out;
}

void
expectIdenticalSweeps(const ScenarioSpec &spec, const SweepTuning &tuning)
{
    const SweepArtifacts calendar =
        runSweep(spec, tuning, EventQueuePolicy::kCalendar);
    const SweepArtifacts heap =
        runSweep(spec, tuning, EventQueuePolicy::kHeap);
    EXPECT_EQ(calendar.csv, heap.csv);
    EXPECT_EQ(calendar.trace, heap.trace);
    EXPECT_EQ(calendar.metrics, heap.metrics);
    EXPECT_EQ(calendar.snapshots, heap.snapshots);
    EXPECT_EQ(calendar.trace.empty(), !tuning.captureTrace);
    if (tuning.fairness)
        EXPECT_NE(calendar.metrics.find("fairness."), std::string::npos);
    if (tuning.health)
        EXPECT_NE(calendar.metrics.find("health."), std::string::npos);
}

SweepTuning
observedTuning()
{
    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.fairness = true;
    tuning.health = true;
    return tuning;
}

TEST(QueueDifferentialTest, ClosedSweepArtifactsAreIdentical)
{
    ScenarioSpec spec;
    spec.agents = 8;
    spec.batches = 3;
    spec.batchSize = 400;
    spec.loadTokens = {"0.5", "2", "7.5"};
    spec.protocolSpecs = {"rr1", "fcfs1", "aap1"};
    expectIdenticalSweeps(spec, observedTuning());
}

TEST(QueueDifferentialTest, DeterministicSweepArtifactsAreIdentical)
{
    // The stochastic grids almost never put two events on one tick.
    // With cv = 0 every agent thinks for the same fixed time, so
    // requests collide on a tick all run long and the order comes down
    // to the (priority, insertion id) tie-break the kernels share.
    ScenarioSpec spec;
    spec.agents = 8;
    spec.cv = 0.0;
    spec.batches = 3;
    spec.batchSize = 400;
    spec.loadTokens = {"0.5", "2", "7.5"};
    spec.protocolSpecs = {"rr1", "fcfs1", "aap1"};
    expectIdenticalSweeps(spec, observedTuning());
}

TEST(QueueDifferentialTest, CompareRunSnapshotsAreIdentical)
{
    // busarb_sim --protocol rr1 --compare aap1 --load 7.6 with
    // fairness and health snapshots.
    ScenarioSpec spec;
    spec.agents = 8;
    spec.batches = 2;
    spec.batchSize = 400;
    spec.warmupSet = true;
    spec.warmup = 400;
    spec.loadTokens = {"7.6"};
    spec.protocolSpecs = {"rr1", "aap1"};
    SweepTuning tuning;
    tuning.fairness = true;
    tuning.snapshotEvery = 100.0;
    tuning.health = true;
    tuning.healthSnapshots = true;
    const SweepArtifacts calendar =
        runSweep(spec, tuning, EventQueuePolicy::kCalendar);
    ASSERT_NE(calendar.snapshots.find("\"kind\": \"health\""),
              std::string::npos);
    EXPECT_EQ(calendar.snapshots,
              runSweep(spec, tuning, EventQueuePolicy::kHeap).snapshots);
}

TEST(QueueDifferentialTest, OpenLoopMmppSweepArtifactsAreIdentical)
{
    ScenarioSpec spec;
    spec.agents = 8;
    spec.source = "open:dist=mmpp,burst=4,gap=8";
    spec.batches = 3;
    spec.batchSize = 400;
    spec.loadTokens = {"0.5", "0.8"};
    spec.protocolSpecs = {"rr1", "fcfs1"};
    expectIdenticalSweeps(spec, observedTuning());
}

TEST(QueueDifferentialTest, TraceReplaySweepArtifactsAreIdentical)
{
    // Record a capture on the calendar kernel, then replay it.
    ScenarioSpec record;
    record.agents = 8;
    record.batches = 3;
    record.batchSize = 400;
    record.loadTokens = {"1.5"};
    record.protocolSpecs = {"rr1"};
    SweepTuning capture;
    capture.captureTrace = true;
    const std::string path =
        test::uniqueTempPath("queue_differential", ".trace");
    {
        const std::string bytes =
            runSweep(record, capture, EventQueuePolicy::kCalendar).trace;
        std::ofstream out(path, std::ios::binary);
        out << bytes;
        ASSERT_TRUE(out.good());
    }

    ScenarioSpec replay;
    replay.agents = 8;
    replay.source = "trace:file=" + path + ",format=binary";
    replay.batches = 2;
    replay.batchSize = 200;
    replay.protocolSpecs = {"rr1", "fcfs1"};
    expectIdenticalSweeps(replay, SweepTuning{});
    std::remove(path.c_str());
}

} // namespace
} // namespace busarb
