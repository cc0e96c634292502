/**
 * @file
 * Reproduces Figure 4.1: cumulative distribution function of the bus
 * waiting time for RR and FCFS (30 agents, total offered load 1.5).
 *
 * Prints the two CDF series on a 0.5-unit grid plus a coarse ASCII
 * rendering. The FCFS CDF rises sharply around the mean wait; the RR
 * CDF spreads out (higher variance, same mean).
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"

int
main()
{
    using namespace busarb;
    using namespace busarb::bench;

    const int n = 30;
    const double load = 1.5;
    std::cout << "Figure 4.1: CDF of the Bus Waiting Time for RR and "
                 "FCFS (" << n << " Agents; Load = " << load
              << "; batch size " << batchSize() << ")\n";

    ScenarioConfig config =
        withPaperMeasurement(equalLoadScenario(n, load));
    config.collectHistogram = true;
    config.histBinWidth = 0.25;
    config.histBins = 400;

    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));

    heading("CDF series (W in transaction times)");
    TextTable table({"t", "CDF RR", "CDF FCFS"});
    for (double t = 0.0; t <= 30.0; t += 1.0) {
        table.addRow({
            formatFixed(t, 1),
            formatFixed(rr.waitHistogram.cdf(t), 3),
            formatFixed(fcfs.waitHistogram.cdf(t), 3),
        });
    }
    table.print(std::cout);

    heading("ASCII rendering ('R' = RR, 'F' = FCFS, '*' = both)");
    const int width = 61;
    const int height = 20;
    for (int row = height; row >= 0; --row) {
        const double level = static_cast<double>(row) / height;
        std::string line(width, ' ');
        for (int col = 0; col < width; ++col) {
            const double t = 0.5 * col;
            const bool r_here =
                std::abs(rr.waitHistogram.cdf(t) - level) <= 0.5 / height;
            const bool f_here =
                std::abs(fcfs.waitHistogram.cdf(t) - level) <=
                0.5 / height;
            if (r_here && f_here)
                line[static_cast<std::size_t>(col)] = '*';
            else if (r_here)
                line[static_cast<std::size_t>(col)] = 'R';
            else if (f_here)
                line[static_cast<std::size_t>(col)] = 'F';
        }
        std::cout << formatFixed(level, 2) << " |" << line << "\n";
    }
    std::cout << "      +" << std::string(width, '-') << "\n"
              << "       0        5        10        15        20        "
                 "25      30 (W)\n";

    std::cout << "\nmean W: RR " << formatEstimate(rr.meanWait())
              << ", FCFS " << formatEstimate(fcfs.meanWait())
              << "; sigma: RR " << formatEstimate(rr.waitStddev())
              << ", FCFS " << formatEstimate(fcfs.waitStddev()) << "\n";
    return 0;
}
