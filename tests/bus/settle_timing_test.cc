/**
 * @file
 * Tests for signal-level (settle-based) arbitration timing.
 */

#include <memory>

#include <gtest/gtest.h>

#include "baseline/central.hh"
#include "baseline/fixed_priority.hh"
#include "bus/bus.hh"
#include "core/fcfs.hh"
#include "core/round_robin.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "sim/event_queue.hh"
#include "support/schedule_recorder.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

constexpr Tick U = kTicksPerUnit;

BusParams
settleParams()
{
    BusParams params;
    params.settleTiming = true;
    params.propagationDelay = 0.05;
    params.controlRounds = 4;
    return params;
}

TEST(SettleTimingTest, SingleCompetitorPaysOnlyControlRounds)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4,
            settleParams());
    test::ScheduleRecorder recorder;
    bus.setObserver(&recorder);
    queue.schedule(0, [&] { bus.postRequest(1); });
    queue.run();
    ASSERT_EQ(recorder.grants().size(), 1u);
    // One competitor settles in 0 rounds: 4 control rounds * 0.05.
    EXPECT_EQ(recorder.grants()[0].start, U / 5);
}

TEST(SettleTimingTest, ContestedPassesTakeLonger)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 8,
            settleParams());
    test::ScheduleRecorder recorder;
    bus.setObserver(&recorder);
    queue.schedule(0, [&] {
        // Identities chosen to force remove/re-apply activity.
        bus.postRequest(5); // 101
        bus.postRequest(2); // 010
        bus.postRequest(3); // 011
    });
    queue.run();
    ASSERT_EQ(recorder.grants().size(), 3u);
    EXPECT_EQ(recorder.grants()[0].agent, 5);
    // More than the uncontested 4 rounds.
    EXPECT_GT(recorder.grants()[0].start, U / 5);
}

TEST(SettleTimingTest, CentralArbiterFallsBackToFixedOverhead)
{
    BusParams params = settleParams();
    params.arbitrationOverhead = 0.5;
    EventQueue queue;
    Bus bus(queue, std::make_unique<CentralRoundRobinProtocol>(), 4,
            params);
    test::ScheduleRecorder recorder;
    bus.setObserver(&recorder);
    queue.schedule(0, [&] { bus.postRequest(1); });
    queue.run();
    ASSERT_EQ(recorder.grants().size(), 1u);
    EXPECT_EQ(recorder.grants()[0].start, U / 2);
}

TEST(SettleTimingTest, ProtocolsReportPlausibleRoundCounts)
{
    // Drive each distributed protocol once and check the reported
    // settle rounds are within the synchronous-model bound (<= k).
    for (const char *key : {"rr1", "rr2", "rr3", "fcfs1", "fcfs2",
                            "hybrid", "fixed", "aap1", "aap2"}) {
        auto protocol = ProtocolRegistry::builtin().fromSpec(key)();
        protocol->reset(10);
        Request req;
        req.agent = 7;
        req.seq = 1;
        protocol->requestPosted(req);
        Request req2;
        req2.agent = 3;
        req2.seq = 2;
        protocol->requestPosted(req2);
        protocol->beginPass(0);
        const int rounds = protocol->settleRoundsForPass();
        EXPECT_GE(rounds, 0) << key;
        EXPECT_LE(rounds, 16) << key;
        protocol->completePass(0);
    }
}

TEST(SettleTimingTest, CentralProtocolsReportNoSignalModel)
{
    for (const char *key : {"central-rr", "central-fcfs", "ticket"}) {
        auto protocol = ProtocolRegistry::builtin().fromSpec(key)();
        protocol->reset(4);
        EXPECT_EQ(protocol->settleRoundsForPass(), -1) << key;
    }
}

TEST(SettleTimingTest, FcfsPaysMoreArbitrationTimeThanRr)
{
    // The paper, Section 3.2: FCFS's wider identities make arbitration
    // slower than RR's. On a synchronous bus (worst-case budget of
    // ceil(k/2) propagations), FCFS with k = 8 lines must see larger
    // mean waits at low load than RR impl 1 with k = 5.
    ScenarioConfig config = equalLoadScenario(10, 0.5, 1.0);
    config.bus = settleParams();
    config.bus.settleMode = BusParams::SettleMode::kWorstCase;
    config.numBatches = 5;
    config.batchSize = 1200;
    config.warmup = 1200;
    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_GT(fcfs.meanWait().value, rr.meanWait().value + 0.02);
}

TEST(SettleTimingTest, WorstCaseBudgetMatchesLineCount)
{
    // RR impl 1 on 10 agents: k = 5 lines -> 4 + ceil(5/2) = 7 rounds.
    BusParams params = settleParams();
    params.settleMode = BusParams::SettleMode::kWorstCase;
    EventQueue queue;
    Bus bus(queue, std::make_unique<RoundRobinProtocol>(), 10, params);
    test::ScheduleRecorder recorder;
    bus.setObserver(&recorder);
    queue.schedule(0, [&] { bus.postRequest(1); });
    queue.run();
    ASSERT_EQ(recorder.grants().size(), 1u);
    EXPECT_EQ(recorder.grants()[0].start, unitsToTicks(0.05) * 7);
}

TEST(SettleTimingTest, WholeStackStillConservesWork)
{
    ScenarioConfig config = equalLoadScenario(8, 2.0, 1.0);
    config.bus = settleParams();
    config.numBatches = 4;
    config.batchSize = 1000;
    config.warmup = 1000;
    for (const char *key : {"rr1", "fcfs2", "aap1"}) {
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
        EXPECT_NEAR(result.utilization().value, 1.0, 5e-3) << key;
    }
    // The fair protocols stay fair under settle timing (AAP-1 is
    // inherently unfair regardless of the timing model).
    for (const char *key : {"rr1", "fcfs2"}) {
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
        EXPECT_NEAR(result.throughputRatio(8, 1).value, 1.0, 0.15)
            << key;
    }
}

} // namespace
} // namespace busarb
