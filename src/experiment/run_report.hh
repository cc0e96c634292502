/**
 * @file
 * Self-contained run reports: one document per scenario run fusing the
 * summary estimates, convergence diagnosis, per-batch measurements,
 * latency breakdown (when a trace was captured), fairness audit, and
 * the full metrics export.
 *
 * The renderer is a pure function of (config, result), and every
 * number goes through the deterministic formatters, so a report for a
 * fixed seed is byte-identical across hosts and --jobs counts. Two
 * output flavors share one content pass: GitHub-flavored markdown and
 * a dependency-free single-file HTML page.
 */

#ifndef BUSARB_EXPERIMENT_RUN_REPORT_HH
#define BUSARB_EXPERIMENT_RUN_REPORT_HH

#include <iosfwd>
#include <string>

#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {

/** Output flavor of a run report. */
enum class RunReportFormat {
    kMarkdown,
    kHtml,
};

/**
 * Render one run's report.
 *
 * The convergence verdict leads the document when the run carried the
 * health monitor (ScenarioConfig::tuning.health); the latency
 * breakdown section appears when a binary trace was captured; the
 * fairness section when the auditor was attached.
 *
 * @param config The scenario that was run.
 * @param result Its result.
 * @param format Markdown or HTML.
 * @param os Destination stream.
 * @param scenario_spec Canonical scenario text (ScenarioSpec::format())
 *        the run was built from; rendered as a replayable "Scenario
 *        spec" section when non-empty.
 */
void writeRunReport(const ScenarioConfig &config,
                    const ScenarioResult &result, RunReportFormat format,
                    std::ostream &os,
                    const std::string &scenario_spec = "");

} // namespace busarb

#endif // BUSARB_EXPERIMENT_RUN_REPORT_HH
