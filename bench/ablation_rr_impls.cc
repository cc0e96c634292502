/**
 * @file
 * Ablation: the three RR implementations and the central reference.
 *
 * All three implementations of Section 3.1 realize the same round-robin
 * schedule; they differ only in bus lines used and in implementation
 * 3's occasional wasted ("wrap") arbitration pass. This harness
 * confirms the performance equivalence and quantifies the retry-pass
 * rate of implementation 3.
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
    std::cout << "Ablation: RR implementations (" << n
              << " agents; batch size " << batchSize() << ")\n";

    for (double load : {0.5, 1.0, 2.0}) {
        heading("Total offered load " + formatFixed(load, 1));
        TextTable table({"Implementation", "W", "sigma W", "t_N/t_1",
                         "Retry passes"});
        for (const char *key : {"rr1", "rr2", "rr3", "central-rr"}) {
            const ScenarioConfig config =
                withPaperMeasurement(equalLoadScenario(n, load));
            const auto result =
                runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
            table.addRow({
                result.protocolName,
                formatEstimate(result.meanWait()),
                formatEstimate(result.waitStddev()),
                formatEstimate(result.throughputRatio(n, 1)),
                formatFixed(result.retryPassFraction().value * 100.0, 1) +
                    "%",
            });
        }
        table.print(std::cout);
    }
    std::cout << "\nImplementations 1, 2 and the central arbiter are "
                 "tick-identical; implementation 3\npays its wrap pass "
                 "only when the scan pointer passes the highest "
                 "requester.\n";
    return 0;
}
