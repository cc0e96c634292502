/**
 * @file
 * Reproduces Table 4.1: allocation of bus bandwidth among agents with
 * equal request rates.
 *
 * For each system size (10, 30, 64 agents) and total offered load, the
 * table reports bus utilization and the throughput ratio between the
 * highest- and lowest-identity agents under the RR protocol (should be
 * exactly 1 up to statistical noise) and the simple FCFS implementation
 * (up to ~9% above 1 near saturation). For 30 agents the paper adds the
 * batching assured-access protocol as the unfairness yardstick; so do
 * we.
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

    std::cout << "Table 4.1: Allocation of Bus Bandwidth Among Agents "
                 "with Equal Request Rates\n";
    std::cout << "(throughput ratio t[N]/t[1]; batch size "
              << batchSize() << ")\n";

    for (int n : {10, 30, 64}) {
        heading("(" + std::string(n == 10 ? "a" : n == 30 ? "b" : "c") +
                ") " + std::to_string(n) + " Agents");
        const bool with_aap = (n == 30);
        std::vector<std::string> headers{"Load", "Lambda", "t_N/t_1 RR",
                                         "t_N/t_1 FCFS"};
        if (with_aap)
            headers.push_back("t_N/t_1 AAP");
        TextTable table(headers);
        // Fan the whole load sweep out at once: per load, RR then FCFS
        // (then AAP for the 30-agent table).
        std::vector<GridJob> grid;
        for (double load : paperLoads()) {
            const ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(n, load));
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("rr1")});
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("fcfs1")});
            if (with_aap)
                grid.push_back(
                    {config, ProtocolRegistry::builtin().fromSpec("aap1")});
        }
        const auto results = runGrid(grid);
        std::size_t cell = 0;
        for (double load : paperLoads()) {
            const auto &rr = results[cell++];
            const auto &fcfs = results[cell++];
            std::vector<std::string> row{
                formatFixed(load, 2),
                formatFixed(rr.utilization().value, 2),
                formatEstimate(rr.throughputRatio(n, 1)),
                formatEstimate(fcfs.throughputRatio(n, 1)),
            };
            if (with_aap) {
                const auto &aap = results[cell++];
                row.push_back(formatEstimate(aap.throughputRatio(n, 1)));
            }
            table.addRow(row);
        }
        table.print(std::cout);
    }
    return 0;
}
