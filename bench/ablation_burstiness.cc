/**
 * @file
 * Ablation: inter-request burstiness beyond the paper's CV range.
 *
 * Section 4.1 sweeps CV from 0 (deterministic) to 1 (exponential),
 * noting that CV = 1 "yields the highest contention". This ablation
 * extends the axis past 1 with hyperexponential inter-request times
 * (bursty sources) and watches how mean wait, variance, and the FCFS
 * implementation-1 fairness bias react — relevant to the paper's
 * closing thought about adapting to request history.
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
    std::cout << "Ablation: inter-request burstiness (CV sweep past the "
                 "paper's range)\n(" << n << " agents; batch size "
              << batchSize() << ")\n";

    for (double load : {1.0, 2.0}) {
        heading("Total offered load " + formatFixed(load, 1));
        TextTable table({"CV", "W", "sigma RR", "sigma FCFS",
                         "t_N/t_1 FCFS1"});
        for (double cv : {0.0, 0.5, 1.0, 2.0, 4.0}) {
            const ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(n, load, cv));
            const auto rr = runScenario(
                config, ProtocolRegistry::builtin().fromSpec("rr1"));
            const auto fcfs = runScenario(
                config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
            table.addRow({
                formatFixed(cv, 1),
                formatFixed(rr.meanWait().value, 2),
                formatFixed(rr.waitStddev().value, 2),
                formatFixed(fcfs.waitStddev().value, 2),
                formatEstimate(fcfs.throughputRatio(n, 1)),
            });
        }
        table.print(std::cout);
    }
    std::cout << "\nBurstier sources lower the time-average load the "
                 "closed agents can offer\n(they re-request in clumps), "
                 "while the sigma_RR / sigma_FCFS gap and the\nFCFS "
                 "identity bias persist across the whole CV axis.\n";
    return 0;
}
