/**
 * @file
 * Fairness demo: the motivating experiment of the paper's introduction.
 *
 * A multiprocessor's processors are "equal", yet under the assured
 * access protocols the bus hands measurably more bandwidth to
 * high-identity agents — which translates directly into application
 * processes running at different speeds. This example sweeps the
 * offered load and prints the per-agent bandwidth share under a
 * baseline assured-access protocol and under the paper's RR and FCFS
 * protocols.
 *
 * Usage: fairness_demo [num_agents]   (default 10)
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

    // Total load 2.5 needs n >= 3 to keep each agent's load below 1.
    long n = 10;
    if (argc > 1 && (!parseLong(argv[1], n) || n < 3 || n > 64)) {
        std::cerr << "fairness_demo: num_agents must be an integer in "
                     "[3, 64], got '"
                  << argv[1] << "'\n";
        return 2;
    }

    std::cout << "Bandwidth share per agent under saturation (" << n
              << " equal agents, total offered load 2.5)\n\n";

    ScenarioConfig config = equalLoadScenario(n, 2.5, 1.0);
    config.numBatches = 10;
    config.batchSize = 4000;
    config.warmup = 4000;

    TextTable table({"agent", "AAP-1 share", "AAP-2 share", "RR share",
                     "FCFS share"});
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    const auto aap1 = runScenario(config, registry.fromSpec("aap1"));
    const auto aap2 = runScenario(config, registry.fromSpec("aap2"));
    const auto rr = runScenario(config, registry.fromSpec("rr1"));
    const auto fcfs = runScenario(config, registry.fromSpec("fcfs1"));
    const double fair = 1.0 / n;
    for (AgentId a = 1; a <= n; ++a) {
        table.addRow({
            std::to_string(a),
            formatFixed(aap1.agentThroughput(a).value / fair, 3),
            formatFixed(aap2.agentThroughput(a).value / fair, 3),
            formatFixed(rr.agentThroughput(a).value / fair, 3),
            formatFixed(fcfs.agentThroughput(a).value / fair, 3),
        });
    }
    table.print(std::cout);

    std::cout << "\nShares are normalized to the fair share 1/N: 1.000 "
                 "means perfectly fair.\nThe assured-access protocols "
                 "form a continuum favouring high identities\n(Section "
                 "2.3); RR and FCFS flatten it.\n\nmax/min share: AAP-1 "
              << formatEstimate(aap1.throughputRatio(n, 1)) << ", AAP-2 "
              << formatEstimate(aap2.throughputRatio(n, 1)) << ", RR "
              << formatEstimate(rr.throughputRatio(n, 1)) << ", FCFS "
              << formatEstimate(fcfs.throughputRatio(n, 1)) << "\n";
    return 0;
}
