/**
 * @file
 * The timing decorator must be invisible to the simulation: a grid run
 * through decorated factories yields the same digest rows as the plain
 * run, and the decorator's counts agree with the bus's own counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

std::vector<busarb::GridJob>
smallGrid(const std::string &source, busarb::ScenarioSpec &spec)
{
    const std::string text = "[workload]\nfamily = equal\nagents = 12\n"
                             "source = " +
                             source +
                             "\n[run]\nbatches = 2\nbatch-size = 300\n"
                             "warmup = 300\nseed = 977\n[sweep]\n"
                             "loads = 0.5 0.9 2 7.5\n"
                             "protocols = rr1 rr3 fcfs1 fcfs2 aap1 aap2\n";
    std::string error;
    EXPECT_TRUE(busarb::parseScenarioSpec(text, spec, error)) << error;
    return busarb::buildSweepGrid(spec, busarb::SweepTuning{},
                                  "perfbench_tests");
}

void
expectDigestUnchanged(const std::string &source)
{
    busarb::ScenarioSpec spec;
    const std::vector<busarb::GridJob> plain = smallGrid(source, spec);
    std::vector<CoreTally> tallies;
    const std::vector<busarb::GridJob> traced = tracedJobs(plain, tallies);
    const auto base = busarb::runScenarioGrid(plain, 1);
    const auto timed = busarb::runScenarioGrid(traced, 1);
    ASSERT_EQ(base.size(), timed.size());
    for (std::size_t c = 0; c < base.size(); ++c) {
        const std::string label = "load=" + spec.cellLoadToken(c);
        EXPECT_EQ(digestRow(base[c], label), digestRow(timed[c], label))
            << spec.cellProtocolSpec(c) << " " << label;
        EXPECT_EQ(cellProblem(timed[c], traced[c].config), "");
        const auto &counters = timed[c].metrics.counters();
        EXPECT_EQ(tallies[c].passes, counters.at("bus.passes").value());
        EXPECT_EQ(tallies[c].retries,
                  counters.at("bus.retry_passes").value());
        EXPECT_GE(tallies[c].requests, cellTransactions(timed[c]));
        EXPECT_GT(tallies[c].sampledPasses, 0u);
        EXPECT_GT(timed[c].profile.eventsExecuted, 0u);
    }
}

TEST(TimingProtocolTest, ClosedLoopDigestUnchanged)
{
    expectDigestUnchanged("closed");
}

TEST(TimingProtocolTest, OpenLoopDigestUnchanged)
{
    expectDigestUnchanged("open:dist=pareto,alpha=1.5");
}

TEST(TimingProtocolTest, CorruptedResultIsFlagged)
{
    busarb::ScenarioSpec spec;
    const std::vector<busarb::GridJob> jobs = smallGrid("closed", spec);
    auto results = busarb::runScenarioGrid({jobs.front()}, 1);
    busarb::ScenarioResult &r = results.front();
    ASSERT_EQ(cellProblem(r, jobs.front().config), "");
    const std::string before = digestRow(r, "x");
    r.batches.pop_back();
    EXPECT_NE(cellProblem(r, jobs.front().config), "");
    EXPECT_NE(digestRow(r, "x"), before);
}

} // namespace
} // namespace perfbench
