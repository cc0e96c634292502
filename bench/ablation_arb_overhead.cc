/**
 * @file
 * Ablation: sensitivity to the arbitration overhead.
 *
 * The paper assumes 0.5 transaction times of overhead, fully overlapped
 * with bus service under load. Binary-patterned arbitration lines
 * [John83] would cut the overhead to roughly one end-to-end propagation
 * (but cannot broadcast the winner, so the RR protocol cannot use them
 * directly — Section 3.1); the FCFS protocol's wider identities push
 * the overhead the other way (Section 3.2). This harness sweeps the
 * overhead from 0 to 1.0 transaction times and reports how mean wait,
 * utilization, and the exposed (non-overlapped) overhead react.
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

    std::cout << "Ablation: arbitration overhead (10 agents; batch size "
              << batchSize() << ")\n";

    for (double load : {0.5, 2.0}) {
        heading("Total offered load " + formatFixed(load, 1));
        TextTable table({"Overhead", "W RR", "W FCFS", "Util RR",
                         "Util FCFS"});
        for (double overhead : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
            ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(10, load));
            config.bus.arbitrationOverhead = overhead;
            const auto rr = runScenario(
                config, ProtocolRegistry::builtin().fromSpec("rr1"));
            const auto fcfs = runScenario(
                config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
            table.addRow({
                formatFixed(overhead, 2),
                formatEstimate(rr.meanWait()),
                formatEstimate(fcfs.meanWait()),
                formatFixed(rr.utilization().value, 3),
                formatFixed(fcfs.utilization().value, 3),
            });
        }
        table.print(std::cout);
    }
    std::cout << "\nUnder load the overhead hides behind bus service "
                 "(utilization stays ~1);\nat low load it adds directly "
                 "to every wait.\n";
    return 0;
}
