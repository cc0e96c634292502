/**
 * @file
 * Fairness-auditor tests: bypass counting against the paper's N-1
 * bound, arrival-order inversions, the starvation watchdog, windowed
 * Jain summaries, deterministic snapshots, and the headline contrast —
 * RR honors its bound while AAP batching violates it.
 */

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/fixed_priority.hh"
#include "bus/bus.hh"
#include "bus/trace.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "obs/fairness_auditor.hh"
#include "sim/event_queue.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

Request
makeRequest(AgentId agent, Tick issued, std::uint64_t seq)
{
    Request req;
    req.agent = agent;
    req.issued = issued;
    req.seq = seq;
    return req;
}

FairnessAuditorConfig
smallConfig(int agents)
{
    FairnessAuditorConfig fc;
    fc.numAgents = agents;
    fc.windowTicks = 100 * kTicksPerUnit;
    return fc;
}

/** Post, grant, and serve one request. */
void
serve(FairnessAuditor &a, AgentId agent, std::uint64_t seq, Tick posted,
      Tick pass_start, Tick granted, Tick served)
{
    a.consume(requestEvent(makeRequest(agent, posted, seq)));
    a.consume(passResolveEvent(granted, pass_start,
                               makeRequest(agent, posted, seq), false));
    a.consume(tenureStartEvent(makeRequest(agent, posted, seq), granted));
    a.consume(tenureEndEvent(makeRequest(agent, posted, seq), served));
}

TEST(FairnessAuditor, CountsBypassesOfOlderPendingRequests)
{
    FairnessAuditor a(smallConfig(3));
    a.consume(requestEvent(makeRequest(1, 0, 1)));
    // Agents 2 and 3 are granted while agent 1 keeps waiting; both
    // passes started after agent 1 posted.
    serve(a, 2, 2, 10, 20, 30, 130);
    serve(a, 3, 3, 15, 130, 140, 240);
    // Agent 1 finally wins: bypassed twice, within the N-1 = 2 bound.
    a.consume(passResolveEvent(250, 240, makeRequest(1, 0, 1), false));
    a.consume(tenureStartEvent(makeRequest(1, 0, 1), 250));
    a.consume(tenureEndEvent(makeRequest(1, 0, 1), 350));
    a.finish(400);

    EXPECT_EQ(a.grants(), 3u);
    EXPECT_EQ(a.completions(), 3u);
    EXPECT_EQ(a.maxBypasses(), 2u);
    EXPECT_EQ(a.agentMaxBypasses(1), 2u);
    EXPECT_EQ(a.agentMaxBypasses(2), 0u);
    EXPECT_EQ(a.boundViolations(), 0u);
}

TEST(FairnessAuditor, FlagsGrantsBeyondTheBound)
{
    FairnessAuditorConfig fc = smallConfig(3);
    fc.bypassBound = 1; // tighter than N-1, to force a violation
    FairnessAuditor a(fc);
    a.consume(requestEvent(makeRequest(1, 0, 1)));
    serve(a, 2, 2, 10, 20, 30, 130);
    serve(a, 3, 3, 15, 130, 140, 240);
    a.consume(passResolveEvent(250, 240, makeRequest(1, 0, 1), false));
    a.finish(300);

    EXPECT_EQ(a.bypassBound(), 1);
    EXPECT_EQ(a.maxBypasses(), 2u);
    EXPECT_EQ(a.boundViolations(), 1u);
}

TEST(FairnessAuditor, RequestPostedDuringPassIsNotBypassed)
{
    FairnessAuditor a(smallConfig(2));
    // Agent 2's pass froze its competitors at t=100; agent 1 posts at
    // t=150, mid-pass. That pass could never have admitted agent 1, so
    // the grant at t=200 must not count as a bypass.
    a.consume(requestEvent(makeRequest(2, 90, 1)));
    a.consume(requestEvent(makeRequest(1, 150, 2)));
    a.consume(passResolveEvent(200, 100, makeRequest(2, 90, 1), false));
    a.finish(300);
    EXPECT_EQ(a.agentMaxBypasses(1), 0u);
    EXPECT_EQ(a.maxBypasses(), 0u);
}

TEST(FairnessAuditor, CountsArrivalOrderInversions)
{
    FairnessAuditor a(smallConfig(3));
    a.consume(requestEvent(makeRequest(1, 0, 1)));
    a.consume(requestEvent(makeRequest(2, 5, 2)));
    a.consume(requestEvent(makeRequest(3, 10, 3)));
    // Granting the newest request skips two older pending ones.
    a.consume(passResolveEvent(100, 20, makeRequest(3, 10, 3), false));
    a.finish(200);
    EXPECT_EQ(a.inversions(), 2u);
}

TEST(FairnessAuditor, EmptyAndRetryPassesAreIgnored)
{
    FairnessAuditor a(smallConfig(2));
    a.consume(requestEvent(makeRequest(1, 0, 1)));
    a.consume(passResolveEvent(50, 40, Request{}, false)); // idle pass
    a.consume(passResolveEvent(90, 80, Request{}, true));  // retry pass
    a.finish(100);
    EXPECT_EQ(a.grants(), 0u);
    EXPECT_EQ(a.agentMaxBypasses(1), 0u);
}

TEST(FairnessAuditor, StarvationWatchdogTracksUnservedRequests)
{
    FairnessAuditor a(smallConfig(2));
    serve(a, 2, 1, 0, 10, 20, 120);
    // Agent 1 posts at t=50 and is never served before the run ends.
    a.consume(requestEvent(makeRequest(1, 50, 2)));
    a.finish(1050);
    EXPECT_EQ(a.maxStarvationTicks(), 1000);
    EXPECT_EQ(a.agentMaxStarvationTicks(1), 1000);
    // Agent 2 was served after a 20-tick request-to-tenure interval.
    EXPECT_EQ(a.agentMaxStarvationTicks(2), 20);
}

TEST(FairnessAuditor, WaitAndJainAccounting)
{
    FairnessAuditor a(smallConfig(2));
    serve(a, 1, 1, 0, 10, kTicksPerUnit, 2 * kTicksPerUnit);
    serve(a, 2, 2, 0, 2 * kTicksPerUnit, 3 * kTicksPerUnit,
          4 * kTicksPerUnit);
    a.finish(4 * kTicksPerUnit);
    // One completion each; waits of 2 and 4 units give J = 36/40.
    EXPECT_DOUBLE_EQ(a.jainCompletions(), 1.0);
    EXPECT_DOUBLE_EQ(a.jainWaits(), 0.9);
    EXPECT_EQ(a.windows().windowsClosed(), 1u);
}

/** Keeps a copy of every bus event. */
struct RecordingSink : TraceSink
{
    std::vector<TraceEvent> events;

    void
    consume(const TraceEvent &ev) override
    {
        events.push_back(ev);
    }
};

/** @return `a`'s exported metrics rendered as CSV. */
std::string
metricsCsv(const FairnessAuditor &a)
{
    MetricsRegistry m;
    a.exportMetrics(m);
    std::ostringstream csv;
    m.writeCsv(csv);
    return csv.str();
}

TEST(FairnessAuditor, ConsumeMatchesLiveCallbacks)
{
    // The offline replay path (busarb_trace audit) must agree with the
    // auditor attached live to the bus, event for event.
    FairnessAuditorConfig fc = smallConfig(4);
    fc.snapshotEveryTicks = kTicksPerUnit;
    fc.label = "x";
    FairnessAuditor live(fc);
    RecordingSink recorded;
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4, {});
    bus.addTraceSink(&live);
    bus.addTraceSink(&recorded);
    // Every agent posts at the start of each round; fixed priority
    // serves them highest identity first, so agent 1 is bypassed.
    for (Tick round = 0; round < 4; ++round) {
        queue.schedule(round * 10 * kTicksPerUnit, [&] {
            for (AgentId a = 1; a <= 4; ++a)
                bus.postRequest(a);
        });
    }
    queue.run();
    live.finish(queue.now());

    FairnessAuditor replay(fc);
    for (const TraceEvent &ev : recorded.events)
        replay.consume(ev);
    replay.finish(queue.now());

    EXPECT_EQ(live.grants(), 16u);
    EXPECT_GT(live.agentMaxBypasses(1), 0u);
    EXPECT_EQ(live.grants(), replay.grants());
    EXPECT_EQ(live.maxBypasses(), replay.maxBypasses());
    EXPECT_EQ(live.inversions(), replay.inversions());
    EXPECT_EQ(live.maxStarvationTicks(), replay.maxStarvationTicks());
    EXPECT_FALSE(live.snapshots().empty());
    EXPECT_EQ(live.snapshots(), replay.snapshots());
    EXPECT_EQ(metricsCsv(live), metricsCsv(replay));
}

TEST(FairnessAuditor, SnapshotsAreKeyedToSimulatedTime)
{
    FairnessAuditorConfig fc = smallConfig(2);
    fc.snapshotEveryTicks = 100;
    fc.label = "snap";
    FairnessAuditor a(fc);
    a.consume(requestEvent(makeRequest(1, 0, 1)));
    // An event at exactly tick 100 emits the t=100 boundary first, so
    // the snapshot covers only events before it.
    a.consume(passResolveEvent(100, 10, makeRequest(1, 0, 1), false));
    a.finish(250);

    const std::string &text = a.snapshots();
    // Boundaries 100 and 200 fire; 300 lies beyond the end.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    const std::size_t first_line = text.find('\n');
    EXPECT_NE(text.find("\"run\": \"snap\""), std::string::npos);
    // The t=100 snapshot predates the grant at tick 100.
    EXPECT_NE(text.substr(0, first_line).find("\"grants\": 0"),
              std::string::npos);
    EXPECT_NE(text.substr(first_line).find("\"grants\": 1"),
              std::string::npos);
}

TEST(FairnessAuditor, ExportMetricsEmitsFairnessEntries)
{
    FairnessAuditor a(smallConfig(2));
    serve(a, 1, 1, 0, 10, 50, kTicksPerUnit);
    a.finish(2 * kTicksPerUnit);
    MetricsRegistry m;
    a.exportMetrics(m);
    EXPECT_EQ(m.counter("fairness.grants").value(), 1u);
    EXPECT_EQ(m.counter("fairness.completions").value(), 1u);
    EXPECT_EQ(m.counter("fairness.bound_violations").value(), 0u);
    EXPECT_EQ(m.counter("fairness.agent.1.completions").value(), 1u);
    EXPECT_EQ(m.counter("fairness.agent.2.completions").value(), 0u);
    EXPECT_EQ(m.gauge("fairness.agent.1.wait").count(), 1u);
    EXPECT_DOUBLE_EQ(m.gauge("fairness.jain_completions").mean(), 0.5);
}

TEST(FairnessAuditor, PrintSummaryMentionsKeyMeasures)
{
    FairnessAuditor a(smallConfig(2));
    serve(a, 1, 1, 0, 10, 50, kTicksPerUnit);
    a.finish(2 * kTicksPerUnit);
    std::ostringstream os;
    a.printSummary(os);
    EXPECT_NE(os.str().find("bypass bound 1"), std::string::npos);
    EXPECT_NE(os.str().find("Jain(completions)"), std::string::npos);
}

TEST(FairnessAuditorDeathTest, RejectsEventsAfterFinish)
{
    FairnessAuditor a(smallConfig(2));
    a.finish(100);
    EXPECT_DEATH(a.consume(requestEvent(makeRequest(1, 200, 1))),
                 "after finish");
}

// ----------------------------------------------------------------------
// The acceptance contrast: under the same near-saturation workload the
// RR protocol never exceeds its N-1 external bypass bound (the paper's
// Section 3.1 guarantee), while AAP batch arbitration — where a request
// that just misses a batch waits out the whole batch and then takes its
// fixed-priority turn in the next — accumulates more than N-1 bypasses
// and registers bound violations.

ScenarioConfig
contrastScenario()
{
    ScenarioConfig config = equalLoadScenario(8, 7.6);
    config.numBatches = 2;
    config.batchSize = 1000;
    config.warmup = 500;
    config.tuning.fairness = true;
    return config;
}

TEST(FairnessAuditorIntegration, RrHonorsItsBoundWhileAapViolatesIt)
{
    const ScenarioConfig config = contrastScenario();
    ScenarioResult rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    ScenarioResult aap =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("aap1"));

    EXPECT_EQ(rr.metrics.counter("fairness.bound_violations").value(),
              0u);
    EXPECT_LE(rr.metrics.gauge("fairness.max_bypasses").max(), 7.0);
    EXPECT_GT(aap.metrics.counter("fairness.bound_violations").value(),
              0u);
    EXPECT_GT(aap.metrics.gauge("fairness.max_bypasses").max(), 7.0);
    // FCFS-style arrival order is exactly what RR's token rotation
    // preserves under saturation and AAP's batches scramble.
    EXPECT_LT(rr.metrics.counter("fairness.inversions").value(),
              aap.metrics.counter("fairness.inversions").value());
}

TEST(FairnessAuditorIntegration, SnapshotsIdenticalAcrossJobCounts)
{
    ScenarioConfig config = contrastScenario();
    config.tuning.snapshotEvery = 250.0;
    std::vector<GridJob> grid;
    grid.push_back({config, ProtocolRegistry::builtin().fromSpec("rr1")});
    grid.push_back({config, ProtocolRegistry::builtin().fromSpec("aap1")});

    const auto serial = runScenarioGrid(grid, 1);
    const auto parallel = runScenarioGrid(grid, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].fairnessSnapshots.empty());
        EXPECT_EQ(serial[i].fairnessSnapshots,
                  parallel[i].fairnessSnapshots);
    }
}

} // namespace
} // namespace busarb
