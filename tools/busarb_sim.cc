/**
 * @file
 * busarb_sim — command-line front end to the whole library.
 *
 * Run any protocol on any of the paper's workload families without
 * writing code:
 *
 *   busarb_sim --protocol rr1 --agents 30 --load 2.0
 *   busarb_sim --protocol fcfs1 --agents 10 --load 1.5 --cv 0.5 \
 *              --histogram-csv hist.csv --batches-csv batches.csv
 *   busarb_sim --protocol aap1 --agents 30 --load 7.5 --compare rr1
 *   busarb_sim --protocol rr3 --agents 4 --load 1.0 --trace-events 40
 *   busarb_sim --protocol fcfs2 --agents 16 --load 2.0 --settle-timing
 *   busarb_sim --protocol rr1 --worst-case --agents 10 --cv 0
 *   busarb_sim --protocol rr1 --agents 8 --load 2.0 --trace-out run.trace \
 *              --metrics-out run-metrics.csv
 *   busarb_sim --scenario examples/scenarios/wrr_asymmetric.scenario
 *   busarb_sim --list-protocols
 *
 * Protocol specs are resolved by the protocol registry
 * (experiment/protocol_registry.hh); workloads come from declarative
 * scenario specs (experiment/scenario_spec.hh), built either from a
 * --scenario file or from the individual flags.
 */

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bus/trace.hh"
#include "experiment/cli.hh"
#include "obs/metrics_registry.hh"
#include "experiment/job_pool.hh"
#include "experiment/csv.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/report.hh"
#include "experiment/workload_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

using namespace busarb;

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_sim",
                     "simulate multiprocessor bus arbitration protocols "
                     "(Vernon & Manber, ISCA 1988)");
    parser.addStringFlag("protocol", "rr1",
                         "protocol spec (see --list-protocols), e.g. "
                         "rr:impl=3, "
                         "fcfs:strategy=increment_on_lose,counter_bits=8,"
                         " fcfs2:window=0.05,bits=3,wrap, rr1:priority, "
                         "or wrr:weights=4/1/1/1");
    parser.addStringFlag("compare", "",
                         "second protocol to run on the same workload");
    parser.addBoolFlag("list-protocols", false,
                       "print the protocol catalogue (keys, parameters, "
                       "defaults, paper sections) and exit");
    parser.addBoolFlag("list-workloads", false,
                       "print the workload-source catalogue (keys, "
                       "parameters, defaults) and exit");
    addScenarioFlags(parser);
    addObserverFlags(parser);
    parser.addStringFlag("batches-csv", "",
                         "write per-batch measurements to this file");
    parser.addStringFlag("histogram-csv", "",
                         "write the waiting-time histogram to this file");
    parser.addIntFlag("trace-events", 0,
                      "print the first K bus events as a timeline");
    parser.addIntFlag("flight-recorder", 0,
                      "retain the last M bus events and dump them to "
                      "stderr if a run panics (0 disables)",
                      0);
    parser.addBoolFlag("profile", false,
                       "print a per-run self-profile (events/sec, "
                       "per-phase wall-clock, queue depth) to stderr "
                       "and export profile.* metrics");
    parser.addIntFlag("jobs", 0,
                      "parallel scenario jobs for --compare runs (0 = "
                      "one per hardware thread); results are identical "
                      "at any job count",
                      0, std::numeric_limits<int>::max());
    if (!parser.parse(argc, argv))
        return parser.exitCode();
    if (parser.getBool("list-protocols")) {
        ProtocolRegistry::builtin().printTable(std::cout);
        return 0;
    }
    if (parser.getBool("list-workloads")) {
        WorkloadRegistry::builtin().printTable(std::cout);
        return 0;
    }

    // Artifact destinations are validated before the run: a missing
    // parent directory fails in seconds, not after the simulation.
    for (const char *flag : {"batches-csv", "histogram-csv"})
        requireParentDirOrExit("busarb_sim", flag,
                               parser.getString(flag));
    const SweepTuning tuning = observerTuningOrExit("busarb_sim", parser);

    const ScenarioSpec spec = scenarioSpecFromFlags("busarb_sim", parser);
    if (spec.loadTokens.size() > 1) {
        std::cerr << "busarb_sim: scenario sweeps " << spec.loadTokens.size()
                  << " loads; busarb_sim runs one (use busarb_sweep "
                     "--grid for grids)\n";
        return 2;
    }

    // One or two protocol specs: from the scenario file when it names
    // any, otherwise from --protocol/--compare. Mixing the two sources
    // would leave the file no longer describing the run.
    std::vector<std::string> protocol_specs = spec.protocolSpecs;
    if (!protocol_specs.empty() &&
        (parser.wasSet("protocol") || parser.wasSet("compare"))) {
        std::cerr << "busarb_sim: --protocol/--compare conflict with "
                     "the scenario file's [protocol]/[sweep] entries\n";
        return 2;
    }
    if (protocol_specs.empty()) {
        protocol_specs.push_back(parser.getString("protocol"));
        if (!parser.getString("compare").empty())
            protocol_specs.push_back(parser.getString("compare"));
    }
    if (protocol_specs.size() > 2) {
        std::cerr << "busarb_sim: scenario names "
                  << protocol_specs.size()
                  << " protocols; busarb_sim runs at most two (use "
                     "busarb_sweep --grid for grids)\n";
        return 2;
    }

    ScenarioConfig config = spec.configForLoad(
        spec.loadAxis().empty() ? "" : spec.loadAxis().front());
    // Pre-run workload validation (trace readability, length vs run
    // controls): a doomed run exits 2 here instead of dying mid-run.
    const std::string workload_error = validateWorkloadRun(config);
    if (!workload_error.empty()) {
        std::cerr << "busarb_sim: " << workload_error << "\n";
        return 2;
    }
    config.collectHistogram = !parser.getString("histogram-csv").empty();
    config.flightRecorderEvents =
        static_cast<std::size_t>(parser.getInt("flight-recorder"));
    config.tuning = tuning;
    config.profile = parser.getBool("profile");

    if (protocol_specs.size() == 2 &&
        protocol_specs[0] == protocol_specs[1]) {
        // Identical specs would collide under the protocol-name
        // metric prefix (and tell the reader nothing anyway).
        std::cerr << "busarb_sim: comparison runs need two different "
                     "protocol specs, got '"
                  << protocol_specs[0] << "' twice\n";
        return 2;
    }
    // Resolve specs before any output so usage errors stay clean.
    std::vector<ProtocolFactory> factories;
    for (const auto &text : protocol_specs)
        factories.push_back(protocolFactoryOrExit("busarb_sim", text));

    const auto trace_events = parser.getInt("trace-events");
    std::unique_ptr<TracePrinter> tracer;
    if (trace_events > 0) {
        std::cout << "timeline of the first " << trace_events
                  << " bus events:\n\n";
        tracer = std::make_unique<TracePrinter>(
            std::cout, static_cast<std::uint64_t>(trace_events));
        config.tracer = tracer.get();
    }

    std::cout << "busarb_sim: " << describeScenario(config) << "\n\n";

    std::vector<GridJob> grid;
    for (std::size_t i = 0; i < protocol_specs.size(); ++i)
        grid.push_back({config, factories[i], protocol_specs[i]});

    // A printer writes to a shared stream while the simulation runs, so
    // traced runs must stay serial; plain runs fan out.
    const int jobs =
        config.tracer != nullptr
            ? 1
            : resolveJobCount(static_cast<int>(parser.getInt("jobs")));
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ScenarioResult> results =
        runScenarioGrid(grid, jobs);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const ScenarioResult &result = results.front();

    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0)
            std::cout << "\n";
        printSummary(results[i], std::cout);
    }
    if (result.workload.openLoop) {
        std::cout << "\n";
        for (const auto &r : results) {
            const WorkloadStats &w = r.workload;
            std::cout << "workload[" << r.protocolName
                      << "]: source=" << r.workloadSpec
                      << " issued=" << w.issued
                      << " backlog=" << w.finalBacklog
                      << " offered_rate=" << formatFixed(w.offeredRate, 4)
                      << " carried_rate=" << formatFixed(w.carriedRate, 4)
                      << " saturated=" << (w.saturated ? "yes" : "no")
                      << "\n";
        }
    }
    if (tuning.fairness) {
        std::cout << "\n";
        for (const auto &r : results) {
            // The registry has no const accessors; read from a copy.
            MetricsRegistry m = r.metrics;
            std::cout << "fairness[" << r.protocolName
                      << "]: grants="
                      << m.counter("fairness.grants").value()
                      << " bound_violations="
                      << m.counter("fairness.bound_violations").value()
                      << " max_bypasses="
                      << m.gauge("fairness.max_bypasses").max()
                      << " inversions="
                      << m.counter("fairness.inversions").value()
                      << " jain_completions="
                      << m.gauge("fairness.jain_completions").mean()
                      << " max_starvation="
                      << m.gauge("fairness.max_starvation_units").max()
                      << "\n";
        }
    }
    if (tuning.health) {
        std::cout << "\n";
        for (const auto &r : results) {
            std::cout << "health[" << r.protocolName << "]: ";
            r.health.print(std::cout);
            std::cout << "\n";
        }
    }
    if (config.profile) {
        for (const auto &r : results)
            r.profile.print(r.protocolName, std::cerr);
    }
    std::cout << "\njobs=" << jobs << " elapsed_ms="
              << formatFixed(elapsed_ms, 0) << "\n";

    if (!parser.getString("batches-csv").empty()) {
        std::ofstream out(parser.getString("batches-csv"));
        if (!out) {
            std::cerr << "cannot write "
                      << parser.getString("batches-csv") << "\n";
            return 1;
        }
        writeBatchesCsv(result, out);
        std::cout << "\nwrote per-batch CSV to "
                  << parser.getString("batches-csv") << "\n";
    }
    if (!parser.getString("histogram-csv").empty()) {
        std::ofstream out(parser.getString("histogram-csv"));
        if (!out) {
            std::cerr << "cannot write "
                      << parser.getString("histogram-csv") << "\n";
            return 1;
        }
        writeHistogramCsv(result, out);
        std::cout << "wrote waiting-time histogram CSV to "
                  << parser.getString("histogram-csv") << "\n";
    }
    // Metrics are merged under protocol-name prefixes, so a --compare
    // run keeps the two apart. Two specs can resolve to one protocol
    // name (e.g. option variants that do not change it); catch that
    // before the merge panics.
    std::vector<std::string> names;
    for (const auto &r : results)
        names.push_back(r.protocolName);
    if (!parser.getString("metrics-out").empty() && names.size() == 2 &&
        names[0] == names[1]) {
        std::cerr << "busarb_sim: --protocol and --compare resolve to "
                     "the same name '"
                  << names[0] << "'; their metrics would collide\n";
        return 2;
    }
    if (!writeObserverOutputs(parser, results, names, spec.format()))
        return 1;
    return healthStrictExitCode("busarb_sim", parser, results, names);
}
