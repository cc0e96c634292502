/**
 * @file
 * Reproduces Table 4.4: allocation of bus bandwidth among agents with
 * unequal request rates (30 agents; agent 1 at 2x and 4x the base
 * rate).
 *
 * At low load both protocols allocate bandwidth in proportion to the
 * request rates; at high load waiting times push both ratios toward 1,
 * with FCFS staying slightly closer to proportional allocation.
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

    std::cout << "Table 4.4: Allocation of Bus Bandwidth Among Agents "
                 "with Unequal Request Rates\n(batch size "
              << batchSize() << ")\n";

    const int n = 30;
    for (double factor : {2.0, 4.0}) {
        heading("(" + std::string(factor == 2.0 ? "a" : "b") + ") " +
                std::to_string(n) + " Agents, One " +
                (factor == 2.0 ? std::string("Request Rate Doubled")
                               : std::string("Quadruple Request Rate")));
        TextTable table({"Load", "Lambda", "Load1/Load2", "t1/t2 RR",
                         "t1/t2 FCFS"});
        // Per eligible load: RR, then FCFS, fanned out as one grid.
        std::vector<ScenarioConfig> configs;
        std::vector<GridJob> grid;
        for (double base_total : paperLoads()) {
            const double base_load = base_total / n;
            // An agent's offered load must stay below 1: the paper's
            // quadruple-rate table accordingly stops at base 5.00/30.
            if (base_load * factor >= 1.0)
                continue;
            const ScenarioConfig config = withPaperMeasurement(
                unequalLoadScenario(n, base_load, factor));
            configs.push_back(config);
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("rr1")});
            grid.push_back(
                {config, ProtocolRegistry::builtin().fromSpec("fcfs1")});
        }
        const auto results = runGrid(grid);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const ScenarioConfig &config = configs[i];
            const auto &rr = results[2 * i];
            const auto &fcfs = results[2 * i + 1];
            table.addRow({
                formatFixed(config.totalOfferedLoad(), 2),
                formatFixed(rr.utilization().value, 2),
                formatFixed(factor, 2),
                formatEstimate(rr.throughputRatio(1, 2)),
                formatEstimate(fcfs.throughputRatio(1, 2)),
            });
        }
        table.print(std::cout);
    }
    return 0;
}
