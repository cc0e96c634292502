/**
 * @file
 * End-to-end behaviour of the priority integration (Sections 2.4, 3.1,
 * 3.2): urgent requests see near-minimal waits, fair scheduling
 * continues within and around the priority class, and heavy priority
 * load starves non-priority traffic (the documented design trade-off).
 */

#include <string>

#include <gtest/gtest.h>

#include "bus/bus.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "stats/welford.hh"
#include "workload/closed_agent.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

/** Mean waits by priority class for one protocol spec. */
struct ClassWaits
{
    double priority = 0.0;
    double normal = 0.0;
};

ClassWaits
measure(const std::string &spec, double priority_fraction,
        double total_load = 2.0)
{
    const int n = 10;
    EventQueue queue;
    Bus bus(queue, ProtocolRegistry::builtin().fromSpec(spec)(), n, {});
    struct Split : BusObserver
    {
        RunningStats prio;
        RunningStats normal;
        std::vector<std::unique_ptr<ClosedAgent>> *agents = nullptr;
        void onServiceStart(const Request &, Tick) override {}
        void
        onServiceEnd(const Request &req, Tick now) override
        {
            (req.priority ? prio : normal)
                .add(ticksToUnits(now - req.issued));
            (*agents)[static_cast<std::size_t>(req.agent - 1)]
                ->onServiceEnd(now);
        }
    } split;
    std::vector<std::unique_ptr<ClosedAgent>> agents;
    Rng base(4242);
    for (AgentId a = 1; a <= n; ++a) {
        AgentTraits traits;
        traits.meanInterrequest = interrequestForLoad(total_load / n);
        traits.priorityFraction = priority_fraction;
        agents.push_back(std::make_unique<ClosedAgent>(
            queue, bus, a, traits, base.fork(a)));
    }
    split.agents = &agents;
    bus.setObserver(&split);
    for (auto &agent : agents)
        agent->start();
    while (split.prio.count() + split.normal.count() < 40000) {
        if (!queue.runOne())
            break;
    }
    return ClassWaits{split.prio.mean(), split.normal.mean()};
}

TEST(PriorityBehaviorTest, UrgentRequestsSeeShortWaits)
{
    // At total load 2.0 a saturated bus makes normal requests wait ~6
    // units; a 10% priority class must wait only about the residual
    // transaction plus service (~2-3 units).
    for (const char *spec :
         {"rr1:priority", "fcfs1:priority,counting=matched",
          "fcfs2:priority,counting=dual", "aap1:priority",
          "aap2:priority"}) {
        const auto waits = measure(spec, 0.1);
        EXPECT_LT(waits.priority, 3.2) << spec;
        EXPECT_GT(waits.normal, waits.priority + 2.0) << spec;
    }
}

TEST(PriorityBehaviorTest, AllPriorityCollapsesToBaseDiscipline)
{
    // With every request urgent, the priority bit is common to all
    // competitors and cancels: mean waits match the non-priority runs
    // (conservation law).
    const auto rr = measure("rr1:priority", 1.0);
    const auto plain = measure("rr1", 0.0);
    EXPECT_NEAR(rr.priority, plain.normal, 0.15 * plain.normal);
}

TEST(PriorityBehaviorTest, HeavyPriorityLoadStarvesNormalTraffic)
{
    // 70% priority traffic at saturation: normal requests queue behind
    // a nearly always-occupied priority class and wait several times
    // longer than the urgent ones — the documented cost of strict
    // priority (Section 2.4).
    const auto waits = measure("fcfs1:priority,counting=matched", 0.7,
                               3.0);
    EXPECT_GT(waits.normal, 2.0 * waits.priority);
}

TEST(PriorityBehaviorTest, RrWithinPriorityClassStaysFair)
{
    // All agents urgent all the time, RR within the class: per-agent
    // throughputs stay equal.
    ScenarioConfig config = equalLoadScenario(8, 2.0, 1.0);
    for (auto &t : config.agents)
        t.priorityFraction = 1.0;
    config.numBatches = 4;
    config.batchSize = 1000;
    config.warmup = 1000;
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    const auto result = runScenario(
        config, registry.fromSpec("rr1:priority,rr-within-class=true"));
    EXPECT_NEAR(result.throughputRatio(8, 1).value, 1.0, 0.08);
    // Ignoring RR within the class degrades to identity order.
    const auto unfair = runScenario(
        config, registry.fromSpec("rr1:priority,rr-within-class=false"));
    EXPECT_GT(unfair.throughputRatio(8, 1).value, 1.5);
}

} // namespace
} // namespace busarb
