/**
 * @file
 * Bus monitoring demo: watch arbitration happen, one event at a time.
 *
 * One of the parallel contention arbiter's selling points (Section 1)
 * is that its state is visible on the bus and can be monitored for
 * initialization and failure diagnosis. This example attaches a
 * TracePrinter to a small bus and prints a timeline of the first
 * couple of round-robin cycles, including the fairness-release cycle
 * of the Futurebus protocol and the wrap cycle of RR implementation 3
 * for comparison. Each line is one bus event in the format shared with
 * flight-recorder dumps, time in transaction units first:
 *
 *   [     0.622] request agent=3 seq=1
 *   [     0.622] pass_start
 *   [     1.122] pass_resolve winner=3 seq=1 pass_units=0.500
 *   [     1.122] tenure_start agent=3 seq=1
 *   [     1.356] request agent=2 seq=2
 *
 * An empty pass (fairness release or wrap) resolves as `retry`.
 *
 * Usage: bus_monitor [protocol-key]   (default rr3)
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bus/trace.hh"
#include "experiment/protocol_registry.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "workload/closed_agent.hh"
#include "workload/scenario.hh"

int
main(int argc, char **argv)
{
    using namespace busarb;

    const std::string key = (argc > 1) ? argv[1] : "rr3";
    const ProtocolFactory factory = protocolFactoryOrExit("bus_monitor", key);
    const int n = 4;

    std::cout << "Monitoring a " << n << "-agent bus under protocol '"
              << key << "'\n(transaction time 1.0, arbitration 0.5; "
              << "~2 units of mean think time)\n\n";

    EventQueue queue;
    Bus bus(queue, factory(), n, {});
    TracePrinter printer(std::cout, /*max_events=*/60);
    bus.addTraceSink(&printer);

    std::vector<std::unique_ptr<ClosedAgent>> agents;
    Rng base(7);
    for (AgentId a = 1; a <= n; ++a) {
        AgentTraits traits;
        traits.meanInterrequest = 2.0;
        traits.cv = 1.0;
        agents.push_back(std::make_unique<ClosedAgent>(
            queue, bus, a, traits, base.fork(a)));
    }

    struct Forwarder : BusObserver
    {
        std::vector<std::unique_ptr<ClosedAgent>> *agents = nullptr;
        void onServiceStart(const Request &, Tick) override {}
        void
        onServiceEnd(const Request &req, Tick now) override
        {
            (*agents)[static_cast<std::size_t>(req.agent - 1)]
                ->onServiceEnd(now);
        }
    } forwarder;
    forwarder.agents = &agents;
    bus.setObserver(&forwarder);

    for (auto &agent : agents)
        agent->start();
    queue.run(unitsToTicks(12.0));

    std::cout << "\nbus summary: " << bus.completedTransactions()
              << " transfers, " << bus.arbitrationPasses() << " passes ("
              << bus.retryPasses() << " empty), "
              << ticksToUnits(bus.exposedArbitrationTicks())
              << " units of exposed arbitration\n";
    std::cout << "\nTry: bus_monitor aap2   (watch the fairness-release "
                 "cycles)\n     bus_monitor fcfs2  (near-perfect FCFS "
                 "order)\n";
    return 0;
}
