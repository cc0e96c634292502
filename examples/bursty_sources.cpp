/**
 * @file
 * Bursty-source demo: correlated request streams (ON/OFF sources).
 *
 * The paper's workloads are renewal processes; real processors issue
 * bus traffic in correlated bursts (miss streaks, block moves). This
 * example gives each agent an OnOffProcess think source — short
 * exponential thinks in bursts, long quiet gaps — and compares how the
 * protocols cope, illustrating the traffic class behind Section 5's
 * "adaptive scheme" remark. It also shows the ClosedAgent constructor
 * that accepts a custom think process.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "experiment/protocol_registry.hh"
#include "experiment/table.hh"
#include "stats/welford.hh"
#include "workload/closed_agent.hh"
#include "workload/on_off_process.hh"

namespace {

using namespace busarb;

struct RunStats
{
    double meanWait = 0.0;
    double sigmaWait = 0.0;
    double maxWait = 0.0;
    double utilization = 0.0;
};

RunStats
run(const char *key, const OnOffParams &params)
{
    const int n = 8;
    EventQueue queue;
    Bus bus(queue, ProtocolRegistry::builtin().fromSpec(key)(), n, {});
    struct Waits : BusObserver
    {
        RunningStats stats;
        std::vector<ClosedAgent *> *agents = nullptr;
        void onServiceStart(const Request &, Tick) override {}
        void
        onServiceEnd(const Request &req, Tick now) override
        {
            stats.add(ticksToUnits(now - req.issued));
            (*agents)[static_cast<std::size_t>(req.agent - 1)]
                ->onServiceEnd(now);
        }
    } waits;
    std::vector<std::unique_ptr<ClosedAgent>> agents;
    std::vector<ClosedAgent *> agent_ptrs;
    Rng base(777);
    for (AgentId a = 1; a <= n; ++a) {
        AgentTraits traits; // mean/cv ignored: explicit think process
        agents.push_back(std::make_unique<ClosedAgent>(
            queue, bus, a, traits, base.fork(a),
            std::make_unique<OnOffProcess>(params)));
        agent_ptrs.push_back(agents.back().get());
    }
    waits.agents = &agent_ptrs;
    bus.setObserver(&waits);
    for (auto &agent : agents)
        agent->start();
    while (waits.stats.count() < 60000) {
        if (!queue.runOne())
            break;
    }
    RunStats result;
    result.meanWait = waits.stats.mean();
    result.sigmaWait = waits.stats.stddev();
    result.maxWait = waits.stats.max();
    result.utilization =
        ticksToUnits(bus.busyTicks()) / ticksToUnits(queue.now());
    return result;
}

} // namespace

int
main()
{
    OnOffParams params;
    params.meanOn = 0.3;   // hammering the bus while bursting
    params.meanOff = 12.0; // quiet phases
    params.burstLength = 12.0;
    params.gapLength = 3.0;
    OnOffProcess reference(params);

    std::cout << "Bursty sources: 8 agents, ON/OFF think process "
              << reference.describe() << "\n(long-run mean think "
              << reference.mean() << ", marginal CV "
              << busarb::formatFixed(reference.cv(), 2)
              << ", correlated)\n\n";

    busarb::TextTable table(
        {"protocol", "mean W", "sigma W", "max W", "bus util"});
    for (const char *key : {"rr1", "fcfs2", "hybrid", "aap1"}) {
        const RunStats stats = run(key, params);
        table.addRow({
            key,
            busarb::formatFixed(stats.meanWait, 2),
            busarb::formatFixed(stats.sigmaWait, 2),
            busarb::formatFixed(stats.maxWait, 1),
            busarb::formatFixed(stats.utilization, 2),
        });
    }
    table.print(std::cout);

    std::cout << "\nCorrelated bursts pile several agents' ON phases on "
                 "top of each other:\nwaits are dominated by burst "
                 "collisions, where FCFS's low variance and the\n"
                 "hybrid's tie handling matter most.\n";
    return 0;
}
