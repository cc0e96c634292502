/**
 * @file
 * End-to-end observability tests on the scenario runner: trace capture
 * decodes and is byte-identical between serial and parallel grids,
 * every observer sees the same bus event stream, and the per-run
 * metrics registry is populated consistently with the batch
 * measurements.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "obs/binary_trace.hh"
#include "obs/fairness_auditor.hh"
#include "obs/flight_recorder.hh"
#include "obs/latency.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

ScenarioConfig
smallConfig(double load)
{
    ScenarioConfig config = equalLoadScenario(6, load, 1.0);
    config.numBatches = 2;
    config.batchSize = 300;
    config.warmup = 300;
    config.tuning.captureTrace = true;
    return config;
}

TEST(RunnerCapture, TraceDecodesAndCoversTheRun)
{
    const ScenarioConfig config = smallConfig(2.0);
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    ASSERT_FALSE(result.binaryTrace.empty());

    const auto chunks = readTraceChunks(result.binaryTrace);
    ASSERT_EQ(chunks.size(), 1u);
    const TraceChunk &chunk = chunks.front();
    EXPECT_EQ(chunk.numAgents, config.numAgents);
    EXPECT_EQ(chunk.protocol, result.protocolName);
    EXPECT_FALSE(chunk.events.empty());
    EXPECT_FALSE(chunk.counterNames.empty());

    // Events are time-ordered; the trace spans warmup + all batches, so
    // it must contain at least one tenure per completed request.
    Tick last = 0;
    std::uint64_t tenures = 0;
    for (const TraceEvent &ev : chunk.events) {
        EXPECT_GE(ev.tick, last);
        last = ev.tick;
        if (ev.kind == TraceEventKind::kTenureEnded)
            ++tenures;
    }
    std::uint64_t measured = 0;
    for (const auto &batch : result.batches)
        for (const std::uint64_t c : batch.completions)
            measured += c;
    EXPECT_GE(tenures, measured);

    // The decoded trace is rich enough for the latency pipeline.
    EXPECT_FALSE(computeRequestLatencies(chunk).empty());
}

/** Keeps every event and feeds a 64-event flight recorder. */
struct RecordingSink : TraceSink
{
    std::vector<TraceEvent> events;
    FlightRecorder recorder{64};

    void
    consume(const TraceEvent &ev) override
    {
        events.push_back(ev);
        recorder.consume(ev);
    }
};

/** @return The `fairness.*` rows of `m`'s CSV rendering. */
std::string
fairnessRows(const MetricsRegistry &m)
{
    std::ostringstream csv;
    m.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string rows;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("fairness.", 0) == 0)
            rows += line + "\n";
    }
    return rows;
}

TEST(RunnerCapture, OneStreamFeedsEveryObserver)
{
    // Binary trace, flight recorder, fairness auditor with snapshots,
    // and a caller's sink all ride one run's bus event stream. The
    // runner's own recorder is observable only through its panic dump,
    // so the caller's sink carries a second one of the same size.
    ScenarioConfig config = smallConfig(2.0);
    config.flightRecorderEvents = 64;
    config.tuning.fairness = true;
    config.tuning.snapshotEvery = 50.0;
    RecordingSink sink;
    config.tracer = &sink;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));

    const auto chunks = readTraceChunks(result.binaryTrace);
    ASSERT_EQ(chunks.size(), 1u);
    const TraceChunk &chunk = chunks.front();
    std::vector<TraceEvent> decoded;
    for (const TraceEvent &ev : chunk.events) {
        if (ev.kind != TraceEventKind::kCounterUpdate)
            decoded.push_back(ev);
    }

    // The caller's sink saw exactly what the trace writer encoded.
    ASSERT_GT(decoded.size(), 64u);
    ASSERT_EQ(sink.events.size(), decoded.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        ASSERT_EQ(sink.events[i], decoded[i]) << "event " << i;

    // The flight recorder retains the tail of the same stream.
    const std::vector<TraceEvent> tail(decoded.end() - 64,
                                       decoded.end());
    EXPECT_EQ(sink.recorder.snapshot(), tail);

    // Replaying the decoded trace through the auditor, as
    // `busarb_trace audit` does, reproduces the live audit.
    FairnessAuditorConfig fc;
    fc.numAgents = config.numAgents;
    fc.windowTicks = unitsToTicks(config.tuning.fairnessWindow);
    fc.bypassBound = config.tuning.bypassBound;
    fc.snapshotEveryTicks = unitsToTicks(config.tuning.snapshotEvery);
    fc.label = chunk.protocol;
    FairnessAuditor replay(fc);
    Tick end = 0;
    for (const TraceEvent &ev : chunk.events) {
        replay.consume(ev);
        end = std::max(end, ev.tick);
    }
    replay.finish(end);
    MetricsRegistry replayed;
    replay.exportMetrics(replayed);

    EXPECT_FALSE(result.fairnessSnapshots.empty());
    EXPECT_EQ(result.fairnessSnapshots, replay.snapshots());
    EXPECT_FALSE(fairnessRows(result.metrics).empty());
    EXPECT_EQ(fairnessRows(result.metrics), fairnessRows(replayed));
}

TEST(RunnerCapture, DisabledCaptureLeavesTraceEmpty)
{
    ScenarioConfig config = smallConfig(1.0);
    config.tuning.captureTrace = false;
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_TRUE(result.binaryTrace.empty());
    // Metrics are always populated; they cost one pass at run end.
    EXPECT_FALSE(result.metrics.empty());
}

TEST(RunnerCapture, MetricsMatchBatchMeasurements)
{
    auto result = runScenario(
        smallConfig(2.0), ProtocolRegistry::builtin().fromSpec("fcfs1"));
    MetricsRegistry &metrics = result.metrics;

    std::uint64_t measured_completions = 0;
    std::uint64_t measured_passes = 0;
    for (const auto &batch : result.batches) {
        measured_passes += batch.passes;
        for (const std::uint64_t c : batch.completions)
            measured_completions += c;
    }
    // The counters cover the whole run (warmup included), so they bound
    // the measured-batch totals from above.
    EXPECT_GE(metrics.counter("bus.completions").value(),
              measured_completions);
    EXPECT_GE(metrics.counter("bus.passes").value(), measured_passes);

    // Per-agent completion counters partition the bus total.
    std::uint64_t per_agent = 0;
    for (int a = 1; a <= 6; ++a) {
        per_agent += metrics
                         .counter("agent." + std::to_string(a) +
                                  ".completions")
                         .value();
    }
    EXPECT_EQ(per_agent, metrics.counter("bus.completions").value());

    EXPECT_EQ(metrics.gauge("wait.mean").count(), 1u);
    EXPECT_GT(metrics.gauge("wait.mean").mean(), 0.0);
    const double util = metrics.gauge("bus.utilization").mean();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(RunnerCapture, ParallelGridMatchesSerialByteForByte)
{
    std::vector<GridJob> grid;
    for (const char *key : {"rr1", "fcfs1"}) {
        for (double load : {0.5, 2.0})
            grid.push_back({smallConfig(load),
                            ProtocolRegistry::builtin().fromSpec(key)});
    }
    const auto serial = runScenarioGrid(grid, 1);
    const auto parallel = runScenarioGrid(grid, 4);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(parallel.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        // The acceptance bar: identical trace bytes at any job count.
        EXPECT_EQ(serial[i].binaryTrace, parallel[i].binaryTrace)
            << "cell " << i;
        std::ostringstream a;
        std::ostringstream b;
        serial[i].metrics.writeCsv(a);
        parallel[i].metrics.writeCsv(b);
        EXPECT_EQ(a.str(), b.str()) << "cell " << i;
    }
}

} // namespace
} // namespace busarb
