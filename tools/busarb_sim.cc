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

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
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
    addQueueFlag(parser);
    parser.addStringFlag("batches-csv", "",
                         "write per-batch measurements to this file");
    parser.addStringFlag("histogram-csv", "",
                         "write the waiting-time histogram to this file");
    parser.addIntFlag("trace-events", 0,
                      "print the first K bus events as a timeline");
    parser.addStringFlag("trace-out", "",
                         "capture a binary event trace of every run to "
                         "this file (decode with busarb_trace)");
    parser.addStringFlag("metrics-out", "",
                         "write merged run metrics to this file (.json "
                         "for JSON, anything else for CSV)");
    parser.addIntFlag("flight-recorder", 0,
                      "retain the last M bus events and dump them to "
                      "stderr if a run panics (0 disables)");
    parser.addBoolFlag("fairness", false,
                       "attach the fairness auditor: per-agent bypass "
                       "counts with N-1 bound checking, starvation "
                       "watchdog, Jain indices (fairness.* metrics)");
    parser.addDoubleFlag("fairness-window", 50.0,
                         "fairness window width, transaction units");
    parser.addIntFlag("bypass-bound", 0,
                      "audited bypass bound per grant (0 = the paper's "
                      "RR guarantee, N-1)");
    parser.addStringFlag("snapshot-out", "",
                         "write deterministic fairness snapshots (JSONL, "
                         "byte-identical at any --jobs) to this file; "
                         "requires --snapshot-every");
    parser.addDoubleFlag("snapshot-every", 0.0,
                         "snapshot interval in simulated transaction "
                         "units; requires --snapshot-out");
    parser.addBoolFlag("health", false,
                       "attach the run-health monitor: batch-means "
                       "convergence diagnostics (relative CI half-width, "
                       "lag-1 autocorrelation, MSER warm-up detection) "
                       "with a per-run verdict and health.* metrics");
    parser.addBoolFlag("health-strict", false,
                       "like --health, but exit with status 3 if any "
                       "run's verdict is not 'converged'");
    parser.addDoubleFlag("health-rel-hw", 0.05,
                         "relative CI half-width target (the paper's "
                         "\"within 5%\")");
    parser.addDoubleFlag("health-lag1", 0.3,
                         "|lag-1| autocorrelation threshold for "
                         "batch-mean independence");
    parser.addBoolFlag("profile", false,
                       "print a per-run self-profile (events/sec, "
                       "per-phase wall-clock, queue depth) to stderr "
                       "and export profile.* metrics");
    parser.addIntFlag("jobs", 0,
                      "parallel scenario jobs for --compare runs (0 = "
                      "one per hardware thread); results are identical "
                      "at any job count");
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
    for (const char *flag : {"batches-csv", "histogram-csv", "trace-out",
                             "metrics-out", "snapshot-out"})
        requireParentDirOrExit("busarb_sim", flag,
                               parser.getString(flag));

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
    config.captureBinaryTrace = !parser.getString("trace-out").empty();
    config.flightRecorderEvents = static_cast<std::size_t>(
        std::max(0L, parser.getInt("flight-recorder")));
    const std::string snapshot_path = parser.getString("snapshot-out");
    const double snapshot_every = parser.getDouble("snapshot-every");
    const bool health_strict = parser.getBool("health-strict");
    config.monitorHealth = parser.getBool("health") || health_strict;
    if (snapshot_path.empty() && snapshot_every > 0.0) {
        std::cerr << "busarb_sim: --snapshot-every requires "
                     "--snapshot-out\n";
        return 2;
    }
    if (!snapshot_path.empty() && snapshot_every <= 0.0 &&
        !config.monitorHealth) {
        std::cerr << "busarb_sim: --snapshot-out requires "
                     "--snapshot-every and/or --health\n";
        return 2;
    }
    config.healthSnapshots =
        config.monitorHealth && !snapshot_path.empty();
    config.healthRelHwTarget = parser.getDouble("health-rel-hw");
    config.healthLag1Threshold = parser.getDouble("health-lag1");
    config.profile = parser.getBool("profile");
    config.eventQueuePolicy = queuePolicyOrExit("busarb_sim", parser);
    config.auditFairness =
        parser.getBool("fairness") || snapshot_every > 0.0;
    config.fairnessWindowUnits = parser.getDouble("fairness-window");
    config.bypassBound = static_cast<int>(parser.getInt("bypass-bound"));
    config.snapshotEveryUnits = snapshot_every;
    if (config.auditFairness && config.fairnessWindowUnits <= 0.0) {
        std::cerr << "busarb_sim: --fairness-window must be > 0\n";
        return 2;
    }

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
    if (config.auditFairness) {
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
    if (config.monitorHealth) {
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

    if (!snapshot_path.empty()) {
        // Per-run snapshot streams (fairness first, then health)
        // concatenated in submission order — byte-identical at any job
        // count.
        std::ofstream out(snapshot_path, std::ios::binary);
        if (!out) {
            std::cerr << "cannot write " << snapshot_path << "\n";
            return 1;
        }
        std::size_t lines = 0;
        const auto count_lines = [](const std::string &s) {
            return static_cast<std::size_t>(
                std::count(s.begin(), s.end(), '\n'));
        };
        for (const auto &r : results) {
            out << r.fairnessSnapshots << r.healthSnapshots;
            lines += count_lines(r.fairnessSnapshots) +
                     count_lines(r.healthSnapshots);
        }
        if (!out) {
            std::cerr << "error writing " << snapshot_path << "\n";
            return 1;
        }
        std::cout << "wrote " << lines << " snapshot line(s) to "
                  << snapshot_path << "\n";
    }

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
    if (!parser.getString("trace-out").empty()) {
        // One self-contained chunk per run, concatenated in submission
        // order — byte-identical at any job count.
        std::ofstream out(parser.getString("trace-out"),
                          std::ios::binary);
        if (!out) {
            std::cerr << "cannot write "
                      << parser.getString("trace-out") << "\n";
            return 1;
        }
        std::size_t bytes = 0;
        for (const auto &r : results) {
            out.write(reinterpret_cast<const char *>(
                          r.binaryTrace.data()),
                      static_cast<std::streamsize>(r.binaryTrace.size()));
            bytes += r.binaryTrace.size();
        }
        if (!out) {
            std::cerr << "error writing "
                      << parser.getString("trace-out") << "\n";
            return 1;
        }
        std::cout << "wrote binary trace (" << results.size()
                  << " chunk(s), " << bytes << " bytes) to "
                  << parser.getString("trace-out") << "\n";
    }
    if (!parser.getString("metrics-out").empty()) {
        // Merge per-run registries in submission order, prefixed by
        // protocol so a --compare run keeps the two apart. Two specs
        // can resolve to one protocol name (e.g. option variants that
        // do not change it); catch that before the merge panics.
        if (results.size() == 2 &&
            results[0].protocolName == results[1].protocolName) {
            std::cerr << "busarb_sim: --protocol and --compare resolve "
                         "to the same name '"
                      << results[0].protocolName
                      << "'; their metrics would collide\n";
            return 2;
        }
        MetricsRegistry merged;
        for (const auto &r : results)
            merged.mergeFrom(r.metrics, r.protocolName + ".");
        // Canonical provenance: the same annotation text whether the
        // run came from flags or from a scenario file.
        merged.setAnnotation("scenario.spec", spec.format());
        if (!merged.writeFile(parser.getString("metrics-out"))) {
            std::cerr << "cannot write "
                      << parser.getString("metrics-out") << "\n";
            return 1;
        }
        std::cout << "wrote metrics to "
                  << parser.getString("metrics-out") << "\n";
    }
    if (health_strict) {
        // Exit 3 is reserved for verdict failures, distinct from I/O
        // errors (1) and usage errors (2), so scripts can gate on it.
        for (const auto &r : results) {
            if (r.health.verdict != ConvergenceVerdict::kConverged) {
                std::cerr << "busarb_sim: run '" << r.protocolName
                          << "' is " << r.health.verdictLabel()
                          << " (--health-strict)\n";
                return 3;
            }
        }
    }
    return 0;
}
