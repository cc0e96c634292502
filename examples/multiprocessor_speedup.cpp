/**
 * @file
 * Multiprocessor speedup demo.
 *
 * The paper's introduction motivates fairness through application
 * performance: "The relative bus bandwidth allocated to each processor
 * in a multiprocessor translates directly to the relative speeds at
 * which application processes run on the processors", and "tightly
 * coupled parallel algorithms are often sensitive to the speed of the
 * slowest processor."
 *
 * Here each processor computes for 4 units between cache-miss block
 * transfers (per-processor offered load 0.2) and stalls while waiting
 * for the bus. We sweep the processor count and report, per protocol:
 *
 *   speedup   — aggregate compute rate relative to one processor;
 *   slowest   — the slowest processor's speed relative to the fastest
 *               (a tightly coupled program runs at the slowest rate).
 */

#include <algorithm>
#include <iostream>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

int
main()
{
    using namespace busarb;

    std::cout << "Multiprocessor speedup: processors compute 4 units "
                 "between misses\n(per-processor load 0.2; transfer 1 "
                 "unit, arbitration 0.5 overlapped)\n\n";

    TextTable table({"P", "protocol", "speedup", "bus util",
                     "slowest/fastest"});
    for (int p : {1, 2, 4, 8, 16, 32}) {
        for (const char *key : {"aap1", "rr1"}) {
            ScenarioConfig config = equalLoadScenario(p, 0.2 * p, 1.0);
            config.numBatches = 8;
            config.batchSize = 3000;
            config.warmup = 3000;
            const auto result =
                runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
            double total = 0.0;
            double slowest = 1.0;
            double fastest = 0.0;
            for (AgentId a = 1; a <= p; ++a) {
                const double speed = result.agentProductivity(a).value;
                total += speed;
                slowest = std::min(slowest, speed);
                fastest = std::max(fastest, speed);
            }
            // One uncontended processor computes 4/(4+1.5) of the time.
            const double solo = 4.0 / 5.5;
            table.addRow({
                std::to_string(p),
                key,
                formatFixed(total / solo, 2),
                formatFixed(result.utilization().value, 2),
                formatFixed(slowest / fastest, 3),
            });
        }
    }
    table.print(std::cout);

    std::cout << "\nSpeedup saturates once the bus does (~5 processors "
                 "at these parameters).\nBeyond saturation the batching "
                 "protocol lets high-identity processors run\nfaster at "
                 "the expense of low ones (slowest/fastest well below "
                 "1), while the\nRR protocol keeps every processor at "
                 "the same speed.\n";
    return 0;
}
