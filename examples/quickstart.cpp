/**
 * @file
 * Quickstart: build a 10-agent bus, run the distributed round-robin and
 * FCFS protocols side by side, and print the headline statistics.
 *
 * Usage: quickstart [total_offered_load]   (default 2.0)
 */

#include <iostream>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

int
main(int argc, char **argv)
{
    using namespace busarb;

    const int num_agents = 10;
    double total_load = 2.0;
    if (argc > 1 && (!parseDouble(argv[1], total_load) ||
                     !(total_load > 0.0 && total_load < num_agents))) {
        std::cerr << "quickstart: total_offered_load must be a number in "
                     "(0, "
                  << num_agents << "), got '" << argv[1] << "'\n";
        return 2;
    }

    // A scenario is the full recipe for a run: agents, their offered
    // loads, the bus timing (1-unit transfers, 0.5-unit arbitration
    // overhead), and the batch-means measurement plan.
    ScenarioConfig config = equalLoadScenario(num_agents, total_load,
                                              /*cv=*/1.0);

    std::cout << "busarb quickstart: " << num_agents
              << " agents, total offered load " << total_load << "\n\n";

    TextTable table({"protocol", "throughput", "mean wait W",
                     "stddev of W", "thr(hi)/thr(lo)"});
    for (const char *key : {"rr1", "fcfs1", "aap1", "fixed"}) {
        const ScenarioResult result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
        table.addRow({
            result.protocolName,
            formatEstimate(result.throughput()),
            formatEstimate(result.meanWait()),
            formatEstimate(result.waitStddev()),
            formatEstimate(result.throughputRatio(num_agents, 1)),
        });
    }
    table.print(std::cout);

    std::cout << "\nthr(hi)/thr(lo) is the bandwidth ratio between the "
                 "highest- and lowest-identity\nagents: 1.00 means fair. "
                 "Note the fixed-priority and batching baselines.\n";
    return 0;
}
