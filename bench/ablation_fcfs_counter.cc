/**
 * @file
 * Ablation: FCFS waiting-time counter width and overflow policy.
 *
 * Section 3.2 suggests "fewer bits in the dynamic portion should
 * implement nearly ideal FCFS scheduling when the bus is not
 * saturated". This harness sweeps the counter width at a moderate and a
 * saturated load and reports the fairness ratio and waiting-time
 * standard deviation, for both saturating and wrapping counters. Width
 * 0 rows use the paper's default ceil(log2(N+1)) bits.
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

    const int n = 30;
    std::cout << "Ablation: FCFS counter width / overflow policy ("
              << n << " agents; batch size " << batchSize() << ")\n";

    for (double load : {1.0, 2.5}) {
        heading("Total offered load " + formatFixed(load, 1));
        TextTable table({"Bits", "Policy", "t_N/t_1", "W", "sigma W"});
        const ScenarioConfig config =
            withPaperMeasurement(equalLoadScenario(n, load));
        for (int bits : {1, 2, 3, 5, 0}) {
            for (const std::string policy : {"saturate", "wrap"}) {
                const std::string spec =
                    "fcfs1:bits=" + std::to_string(bits) + "," + policy;
                const auto result = runScenario(
                    config, ProtocolRegistry::builtin().fromSpec(spec));
                table.addRow({
                    bits == 0 ? "default(5)" : formatFixed(bits, 0),
                    policy,
                    formatEstimate(result.throughputRatio(n, 1)),
                    formatFixed(result.meanWait().value, 2),
                    formatFixed(result.waitStddev().value, 2),
                });
            }
        }
        table.print(std::cout);
    }
    std::cout << "\nBelow saturation even 2-3 counter bits keep FCFS "
                 "nearly ideal; at saturation\nnarrow wrapping counters "
                 "reintroduce identity bias and raise variance.\n";
    return 0;
}
