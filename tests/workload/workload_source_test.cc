/**
 * @file
 * End-to-end tests for the workload-source seam: the open-loop Poisson
 * source against the M/D/1-M/M/1 closed forms, the saturation verdict,
 * and trace replay's identical-arrivals guarantee across protocols and
 * queue policies.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "obs/binary_trace.hh"
#include "stats/convergence.hh"
#include "stats/open_queue.hh"
#include "support/temp_path.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

ScenarioConfig
openScenario(const std::string &spec)
{
    ScenarioConfig config = equalLoadScenario(4, 1.0, 1.0);
    config.workloadSpec = spec;
    config.numBatches = 8;
    config.batchSize = 4000;
    config.warmup = 4000;
    return config;
}

TEST(OpenWorkloadTest, PoissonWaitMatchesMd1ClosedForm)
{
    // Superposed Poisson arrivals to a deterministic-service bus with
    // no exposed arbitration are exactly M/D/1; the closed form is an
    // equality, not a bound. M/M/1 brackets it from above.
    ScenarioConfig config = openScenario("open:rate=0.6,dist=exp");
    config.bus.arbitrationOverhead = 0.0;
    const double s = config.bus.transactionTime;
    const ScenarioResult result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));

    const OpenQueueResult det = md1(0.6, s);
    const OpenQueueResult expo = mm1(0.6, s);
    const double w = result.meanWait().value;
    EXPECT_NEAR(w, det.meanResponse, 0.1);
    EXPECT_LT(w, expo.meanResponse);
    EXPECT_NEAR(result.utilization().value, det.utilization, 0.02);
    EXPECT_FALSE(result.workload.saturated);
}

TEST(OpenWorkloadTest, OfferedAndCarriedRatesAgreeWhenStable)
{
    const ScenarioResult result =
        runScenario(openScenario("open:rate=0.7"),
                    ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_TRUE(result.workload.openLoop);
    EXPECT_NEAR(result.workload.offeredRate, 0.7, 0.05);
    EXPECT_NEAR(result.workload.carriedRate,
                result.workload.offeredRate, 0.05);
    // A stable queue keeps its backlog near zero.
    EXPECT_LT(result.workload.finalBacklog, 200u);
}

TEST(OpenWorkloadTest, OverloadRaisesTheSaturationVerdict)
{
    // rate > 1/S: arrivals outrun the bus, the backlog grows without
    // bound, and the run must say so instead of reporting a converged
    // estimate of a divergent quantity.
    ScenarioConfig config = openScenario("open:rate=1.3");
    config.tuning.health = true;
    const ScenarioResult result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_TRUE(result.workload.saturated);
    EXPECT_GT(result.workload.finalBacklog, 1000u);
    EXPECT_EQ(result.health.verdict, ConvergenceVerdict::kSaturated);
    // Carried load pins at the service capacity.
    EXPECT_NEAR(result.workload.carriedRate, 1.0, 0.05);
    EXPECT_GT(result.workload.offeredRate,
              result.workload.carriedRate);
}

TEST(OpenWorkloadTest, StableRunsKeepTheMeasuredVerdict)
{
    ScenarioConfig config = openScenario("open:rate=0.5");
    config.tuning.health = true;
    const ScenarioResult result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_FALSE(result.workload.saturated);
    EXPECT_NE(result.health.verdict, ConvergenceVerdict::kSaturated);
}

/** Writes a text trace covering `requests` posts over 4 agents. */
class TempTraceFile
{
  public:
    explicit TempTraceFile(int requests)
    {
        path_ = test::uniqueTempPath("workload_source_trace", ".txt");
        std::ofstream out(path_);
        double t = 0.0;
        for (int i = 0; i < requests; ++i) {
            t += 0.4 + 0.1 * (i % 3);
            out << t << ' ' << (1 + i % 4) << '\n';
        }
    }

    ~TempTraceFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ScenarioConfig
traceScenario(const TempTraceFile &trace)
{
    ScenarioConfig config = equalLoadScenario(4, 1.0, 1.0);
    config.workloadSpec = "trace:file=" + trace.path();
    config.numBatches = 4;
    config.batchSize = 500;
    config.warmup = 500;
    config.tuning.captureTrace = true;
    return config;
}

/** Extract the (tick, agent) arrival schedule from a captured run. */
std::vector<std::pair<Tick, AgentId>>
arrivalSchedule(const ScenarioResult &result)
{
    std::vector<std::pair<Tick, AgentId>> posts;
    for (const auto &chunk : readTraceChunks(result.binaryTrace)) {
        for (const auto &event : chunk.events) {
            if (event.kind == TraceEventKind::kRequestPosted)
                posts.emplace_back(event.tick, event.agent);
        }
    }
    return posts;
}

TEST(TraceWorkloadTest, ReplayDrivesIdenticalArrivalsIntoAnyProtocol)
{
    // The whole point of record/replay: the arrival schedule is a
    // property of the trace, not of the protocol under test.
    TempTraceFile trace(4000);
    const ScenarioResult rr = runScenario(
        traceScenario(trace), ProtocolRegistry::builtin().fromSpec("rr1"));
    const ScenarioResult fcfs = runScenario(
        traceScenario(trace), ProtocolRegistry::builtin().fromSpec("fcfs1"));

    const auto rr_posts = arrivalSchedule(rr);
    const auto fcfs_posts = arrivalSchedule(fcfs);
    ASSERT_GT(rr_posts.size(), 2000u);
    const std::size_t common =
        std::min(rr_posts.size(), fcfs_posts.size());
    for (std::size_t i = 0; i < common; ++i)
        ASSERT_EQ(rr_posts[i], fcfs_posts[i]) << "post " << i;
    // The runs may stop a few ticks apart, but the schedules can only
    // differ by the tail the shorter run never reached.
    EXPECT_LE(rr_posts.size() > fcfs_posts.size()
                  ? rr_posts.size() - fcfs_posts.size()
                  : fcfs_posts.size() - rr_posts.size(),
              8u);
}

TEST(TraceWorkloadTest, ReplayIsByteIdenticalAcrossRunsAndPolicies)
{
    TempTraceFile trace(4000);
    const auto metrics_csv = [](const ScenarioResult &result) {
        std::ostringstream os;
        result.metrics.writeCsv(os);
        return os.str();
    };

    ScenarioConfig calendar = traceScenario(trace);
    calendar.eventQueuePolicy = EventQueuePolicy::kCalendar;
    ScenarioConfig heap = traceScenario(trace);
    heap.eventQueuePolicy = EventQueuePolicy::kHeap;

    const ScenarioResult a =
        runScenario(calendar, ProtocolRegistry::builtin().fromSpec("rr1"));
    const ScenarioResult b =
        runScenario(calendar, ProtocolRegistry::builtin().fromSpec("rr1"));
    const ScenarioResult c =
        runScenario(heap, ProtocolRegistry::builtin().fromSpec("rr1"));

    EXPECT_EQ(metrics_csv(a), metrics_csv(b));
    EXPECT_EQ(metrics_csv(a), metrics_csv(c));
    EXPECT_EQ(a.binaryTrace, b.binaryTrace);
    EXPECT_EQ(a.binaryTrace, c.binaryTrace);
}

} // namespace
} // namespace busarb
