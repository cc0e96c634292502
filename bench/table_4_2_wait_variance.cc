/**
 * @file
 * Reproduces Table 4.2: standard deviation of the waiting time for FCFS
 * and RR.
 *
 * For each system size and load: the mean wait W (identical for both
 * protocols by the conservation law), sigma_W for FCFS, sigma_W for RR,
 * and their ratio. The paper finds sigma_RR up to ~60% (10 agents),
 * ~195% (30) and ~350% (64) higher than sigma_FCFS.
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

    std::cout << "Table 4.2: Standard Deviation of the Waiting Time for "
                 "FCFS and RR\n(batch size " << batchSize() << ")\n";

    for (int n : {10, 30, 64}) {
        heading("(" + std::string(n == 10 ? "a" : n == 30 ? "b" : "c") +
                ") " + std::to_string(n) + " Agents");
        TextTable table({"Load", "Lambda", "W", "sigma FCFS", "sigma RR",
                         "sigma_RR/sigma_FCFS"});
        // Per load: RR, then FCFS; the whole sweep runs as one grid.
        std::vector<GridJob> grid;
        for (double load : paperLoads()) {
            const ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(n, load));
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("rr1")});
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("fcfs1")});
        }
        const auto results = runGrid(grid);
        std::size_t cell = 0;
        for (double load : paperLoads()) {
            const auto &rr = results[cell++];
            const auto &fcfs = results[cell++];
            const double sigma_rr = rr.waitStddev().value;
            const double sigma_fcfs = fcfs.waitStddev().value;
            table.addRow({
                formatFixed(load, 2),
                formatFixed(rr.utilization().value, 2),
                formatFixed(rr.meanWait().value, 2),
                formatFixed(sigma_fcfs, 2),
                formatFixed(sigma_rr, 2),
                formatFixed(sigma_rr / sigma_fcfs, 2),
            });
        }
        table.print(std::cout);
    }
    return 0;
}
