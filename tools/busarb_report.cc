/**
 * @file
 * busarb_report — run one scenario and render a self-contained run
 * report (markdown or HTML) with the convergence verdict up top,
 * followed by the summary estimates, per-batch measurements, latency
 * breakdown, fairness audit, and the full metrics export.
 *
 * The report is a pure function of the scenario configuration (seed
 * included), so a fixed command line reproduces the file byte for
 * byte:
 *
 *   busarb_report --protocol rr1 --agents 10 --load 2.0 --out run.html
 *   busarb_report --protocol fcfs1 --agents 30 --load 7.5 \
 *                 --format md --out run.md
 *   busarb_report --scenario examples/scenarios/wrr_asymmetric.scenario \
 *                 --out wrr.md
 *
 * The workload comes from the same declarative scenario seam as
 * busarb_sim (experiment/scenario_spec.hh); the canonical spec text is
 * embedded in the report, so any report can be replayed.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/run_report.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/workload_registry.hh"
#include "workload/scenario.hh"

using namespace busarb;

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_report",
                     "render a self-contained run report (markdown or "
                     "HTML) for one scenario run");
    parser.addStringFlag("protocol", "rr1",
                         "protocol spec (same grammar as busarb_sim)");
    addScenarioFlags(parser);
    parser.addDoubleFlag("snapshot-every", 0.0,
                         "also embed fairness snapshots at this "
                         "simulated-time interval (0 disables)");
    parser.addBoolFlag("no-trace", false,
                       "skip the binary trace capture (drops the "
                       "latency-breakdown section; faster for large "
                       "runs)");
    parser.addStringFlag("format", "",
                         "report format: md or html (default: by --out "
                         "extension, .html for HTML, markdown "
                         "otherwise)");
    parser.addStringFlag("out", "",
                         "output file; '-' writes to stdout (required)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();

    const std::string out_path = parser.getString("out");
    if (out_path.empty()) {
        std::cerr << "busarb_report: --out is required\n";
        return 2;
    }
    if (out_path != "-")
        requireParentDirOrExit("busarb_report", "out", out_path);
    RunReportFormat format = RunReportFormat::kMarkdown;
    const std::string format_arg = parser.getString("format");
    if (format_arg == "html") {
        format = RunReportFormat::kHtml;
    } else if (format_arg == "md" || format_arg == "markdown") {
        format = RunReportFormat::kMarkdown;
    } else if (format_arg.empty()) {
        if (out_path.size() >= 5 &&
            out_path.compare(out_path.size() - 5, 5, ".html") == 0)
            format = RunReportFormat::kHtml;
    } else {
        std::cerr << "busarb_report: --format must be md or html, got '"
                  << format_arg << "'\n";
        return 2;
    }

    const ScenarioSpec spec =
        scenarioSpecFromFlags("busarb_report", parser);
    if (spec.loadTokens.size() > 1) {
        std::cerr << "busarb_report: scenario sweeps "
                  << spec.loadTokens.size()
                  << " loads; a report covers one run\n";
        return 2;
    }
    std::vector<std::string> protocol_specs = spec.protocolSpecs;
    if (!protocol_specs.empty() && parser.wasSet("protocol")) {
        std::cerr << "busarb_report: --protocol conflicts with the "
                     "scenario file's [protocol]/[sweep] entries\n";
        return 2;
    }
    if (protocol_specs.empty())
        protocol_specs.push_back(parser.getString("protocol"));
    if (protocol_specs.size() > 1) {
        std::cerr << "busarb_report: scenario names "
                  << protocol_specs.size()
                  << " protocols; a report covers one run\n";
        return 2;
    }

    ScenarioConfig config = spec.configForLoad(
        spec.loadAxis().empty() ? "" : spec.loadAxis().front());
    const std::string workload_error = validateWorkloadRun(config);
    if (!workload_error.empty()) {
        std::cerr << "busarb_report: " << workload_error << "\n";
        return 2;
    }

    // A report is the run's full observability surface: health verdict,
    // snapshots, fairness audit, and (unless suppressed) the trace the
    // latency breakdown is computed from.
    config.tuning.health = true;
    config.tuning.healthSnapshots = true;
    config.tuning.fairness = true;
    config.tuning.snapshotEvery = parser.getDouble("snapshot-every");
    config.tuning.captureTrace = !parser.getBool("no-trace");
    const std::string tuning_error = tuningError(config.tuning);
    if (!tuning_error.empty()) {
        std::cerr << "busarb_report: --" << tuning_error << "\n";
        return 2;
    }

    const ScenarioResult result = runScenario(
        config,
        protocolFactoryOrExit("busarb_report", protocol_specs.front()));

    if (out_path == "-") {
        writeRunReport(config, result, format, std::cout,
                       spec.format());
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    writeRunReport(config, result, format, out, spec.format());
    if (!out) {
        std::cerr << "error writing " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote "
              << (format == RunReportFormat::kHtml ? "HTML" : "markdown")
              << " report (" << result.protocolName << ", verdict "
              << result.health.verdictLabel() << ") to " << out_path
              << "\n";
    return 0;
}
