/**
 * @file
 * Multiple-outstanding-requests demo (Section 3.2 extension).
 *
 * "One nice property of the FCFS algorithm is that it can easily be
 * modified to allow each agent to have more than one active request,
 * yet still serve all requests in FCFS order. If the maximum number of
 * outstanding requests from each agent is r, then only ceil(log2 r)
 * more bits are needed for the waiting time counters."
 *
 * This example gives every agent r request tokens (modeling, e.g., a
 * processor with r miss-status registers / prefetch slots) and shows
 * how throughput at a fixed think time scales with r until the bus
 * saturates, while FCFS order and fairness hold throughout.
 *
 * Usage: multi_outstanding [max_r]   (default 8)
 */

#include <iostream>
#include <string>

#include "core/fcfs.hh"
#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

int
main(int argc, char **argv)
{
    using namespace busarb;

    long max_r = 8;
    if (argc > 1 &&
        (!parseLong(argv[1], max_r) || max_r < 1 || max_r > 64)) {
        std::cerr << "multi_outstanding: max_r must be an integer in "
                     "[1, 64], got '"
                  << argv[1] << "'\n";
        return 2;
    }
    const int n = 8;

    std::cout << "FCFS with multiple outstanding requests per agent ("
              << n << " agents,\nper-token think time 9 units => load "
              << n << "r/10)\n\n";

    TextTable table({"r", "counter bits", "throughput", "mean W",
                     "t_N/t_1"});
    for (int r = 1; r <= max_r; r *= 2) {
        ScenarioConfig config;
        config.numAgents = n;
        AgentTraits traits;
        traits.meanInterrequest = 9.0;
        traits.cv = 1.0;
        traits.maxOutstanding = r;
        config.agents.assign(n, traits);
        config.numBatches = 8;
        config.batchSize = 4000;
        config.warmup = 4000;

        const ProtocolFactory fcfs = ProtocolRegistry::builtin().fromSpec(
            "fcfs2:r=" + std::to_string(r));
        auto probe = fcfs();
        probe->reset(n);
        const int bits =
            dynamic_cast<const FcfsProtocol &>(*probe).counterBits();

        const auto result = runScenario(config, fcfs);
        table.addRow({
            std::to_string(r),
            std::to_string(bits),
            formatEstimate(result.throughput()),
            formatEstimate(result.meanWait()),
            formatEstimate(result.throughputRatio(n, 1)),
        });
    }
    table.print(std::cout);

    std::cout << "\nEach doubling of r adds one counter bit and raises "
                 "the sustainable load\nuntil the bus saturates near "
                 "throughput 1.0; fairness stays intact.\n";
    return 0;
}
