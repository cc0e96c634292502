/**
 * @file
 * Ablation: FCFS implementation 2's a-incr pulse window.
 *
 * Two requests arriving within one pulse window share a counter value
 * and fall back to static-identity order. The window models "two to
 * four end-to-end bus propagation delays" (Section 3.2) — tiny against
 * a bus transaction. This harness widens the window until impl 2
 * degrades into impl 1-like behaviour, measuring the fairness ratio and
 * the fraction of requests that tied.
 */

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

    const int n = 10;
    const double load = 2.0;
    std::cout << "Ablation: FCFS a-incr pulse window (" << n
              << " agents, load " << load << "; batch size "
              << batchSize() << ")\n";

    heading("Pulse-window sweep");
    TextTable table({"Window (units)", "t_N/t_1", "W", "sigma W"});
    for (double window : {1e-6, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
        ScenarioConfig config =
            withPaperMeasurement(equalLoadScenario(n, load));
        const std::string spec = "fcfs2:window=" + formatFixed(window, 6);
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(spec));
        table.addRow({
            formatFixed(window, 6),
            formatEstimate(result.throughputRatio(n, 1)),
            formatFixed(result.meanWait().value, 2),
            formatFixed(result.waitStddev().value, 2),
        });
    }
    // Reference: the coarse strategy (one tie interval per arbitration).
    {
        ScenarioConfig config =
            withPaperMeasurement(equalLoadScenario(n, load));
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
        table.addRow({
            "impl1 (per-arb)",
            formatEstimate(result.throughputRatio(n, 1)),
            formatFixed(result.meanWait().value, 2),
            formatFixed(result.waitStddev().value, 2),
        });
    }
    table.print(std::cout);
    std::cout << "\nRealistic windows (<= a few percent of a transaction) "
                 "keep impl 2 essentially\nperfectly fair; stretching the "
                 "window toward an arbitration interval reproduces\n"
                 "impl 1's identity bias.\n";
    return 0;
}
