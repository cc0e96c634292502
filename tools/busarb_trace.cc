/**
 * @file
 * busarb_trace — inspect and convert binary bus traces.
 *
 * Reads a trace file produced by --trace-out (busarb_sim or
 * busarb_sweep) and converts it to Chrome trace-event JSON for
 * ui.perfetto.dev, to a flat events CSV, or to a per-request latency
 * CSV. With no output flags it prints a per-run latency breakdown
 * (queueing vs exposed arbitration vs service):
 *
 *   busarb_trace run.trace
 *   busarb_trace run.trace --perfetto run.json
 *   busarb_trace run.trace --events-csv events.csv
 *   busarb_trace run.trace --latency-csv latency.csv
 *
 * The `audit` subcommand replays every run in the trace through the
 * fairness auditor (obs/fairness_auditor.hh) — the identical code path
 * a live --fairness run uses — and prints per-run bypass-bound,
 * starvation, and Jain's-index summaries:
 *
 *   busarb_trace audit run.trace
 *   busarb_trace audit run.trace --bypass-bound 3 --metrics-out f.json
 *   busarb_trace audit run.trace --snapshot-out run.jsonl \
 *                --snapshot-every 100
 *
 * A truncated or otherwise corrupt trace exits with status 2 and a
 * message naming the offending chunk.
 */

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/sweep_cells.hh"
#include "obs/binary_trace.hh"
#include "obs/fairness_auditor.hh"
#include "obs/latency.hh"
#include "obs/metrics_registry.hh"
#include "obs/perfetto.hh"

using namespace busarb;

namespace {

bool
readFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return !in.bad();
}

/** Open `path` and run `write(file)`; false on I/O failure. */
template <typename WriteFn>
bool
writeTextFile(const std::string &path, WriteFn write)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "busarb_trace: cannot write " << path << "\n";
        return false;
    }
    write(out);
    if (!out) {
        std::cerr << "busarb_trace: error writing " << path << "\n";
        return false;
    }
    return true;
}

/**
 * Replay every chunk through a fresh FairnessAuditor and print its
 * summary; optionally write merged fairness.* metrics and concatenated
 * snapshot JSONL.
 *
 * @return Process exit code.
 */
int
runAudit(const std::vector<TraceChunk> &chunks, const ArgParser &parser)
{
    // The same value check a live --fairness run's flags go through.
    SweepTuning tuning;
    tuning.fairnessWindow = parser.getDouble("fairness-window");
    tuning.bypassBound = static_cast<int>(parser.getInt("bypass-bound"));
    tuning.snapshotEvery = parser.getDouble("snapshot-every");
    const std::string error = tuningError(tuning);
    if (!error.empty()) {
        std::cerr << "busarb_trace: --" << error << "\n";
        return 2;
    }
    const std::string snapshot_path = parser.getString("snapshot-out");
    if (snapshot_path.empty() != (tuning.snapshotEvery <= 0.0)) {
        std::cerr << "busarb_trace: --snapshot-out and --snapshot-every "
                     "must be given together\n";
        return 2;
    }

    MetricsRegistry merged;
    std::string snapshots;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const TraceChunk &chunk = chunks[i];
        FairnessAuditorConfig fc;
        fc.numAgents = chunk.numAgents;
        fc.windowTicks = unitsToTicks(tuning.fairnessWindow);
        fc.bypassBound = tuning.bypassBound;
        fc.snapshotEveryTicks = unitsToTicks(tuning.snapshotEvery);
        fc.label = chunk.protocol;
        FairnessAuditor auditor(fc);
        Tick end = 0;
        for (const TraceEvent &ev : chunk.events) {
            auditor.consume(ev);
            end = std::max(end, ev.tick);
        }
        auditor.finish(end);

        if (i > 0)
            std::cout << "\n";
        std::cout << "run " << i << " (" << chunk.protocol << "):\n";
        auditor.printSummary(std::cout);
        MetricsRegistry local;
        auditor.exportMetrics(local);
        merged.mergeFrom(local, "run" + std::to_string(i) + "." +
                                    chunk.protocol + ".");
        snapshots += auditor.snapshots();
    }

    if (!parser.getString("metrics-out").empty()) {
        if (!merged.writeFile(parser.getString("metrics-out"))) {
            std::cerr << "busarb_trace: cannot write "
                      << parser.getString("metrics-out") << "\n";
            return 1;
        }
        std::cout << "\nwrote fairness metrics to "
                  << parser.getString("metrics-out") << "\n";
    }
    if (!snapshot_path.empty()) {
        std::ofstream out(snapshot_path, std::ios::binary);
        if (!out) {
            std::cerr << "busarb_trace: cannot write " << snapshot_path
                      << "\n";
            return 1;
        }
        out << snapshots;
        if (!out) {
            std::cerr << "busarb_trace: error writing " << snapshot_path
                      << "\n";
            return 1;
        }
        std::cout << "wrote fairness snapshots to " << snapshot_path
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_trace",
                     "convert binary bus traces (--trace-out files) to "
                     "Perfetto JSON or CSV, summarize latencies, or "
                     "`audit` fairness");
    parser.addStringFlag("perfetto", "",
                         "write Chrome trace-event JSON here (open in "
                         "ui.perfetto.dev)");
    parser.addStringFlag("events-csv", "",
                         "write one CSV row per trace event here");
    parser.addStringFlag("latency-csv", "",
                         "write one CSV row per served request here "
                         "(queue / exposed-arb / service breakdown)");
    parser.addBoolFlag("summary", false,
                       "print the latency breakdown table even when an "
                       "output flag is given");
    parser.addDoubleFlag("fairness-window", 50.0,
                         "audit: fairness window width, transaction "
                         "units");
    parser.addIntFlag("bypass-bound", 0,
                      "audit: audited bypass bound per grant (0 = the "
                      "paper's RR guarantee, N-1)",
                      0, std::numeric_limits<int>::max());
    parser.addStringFlag("snapshot-out", "",
                         "audit: write deterministic fairness snapshots "
                         "(JSONL) here; requires --snapshot-every");
    parser.addDoubleFlag("snapshot-every", 0.0,
                         "audit: snapshot interval in simulated "
                         "transaction units; requires --snapshot-out");
    parser.addStringFlag("metrics-out", "",
                         "audit: write merged fairness.* metrics here "
                         "(.json for JSON, anything else for CSV)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();

    bool audit = false;
    std::string input;
    if (parser.positional().size() == 1) {
        input = parser.positional().front();
    } else if (parser.positional().size() == 2 &&
               parser.positional().front() == "audit") {
        audit = true;
        input = parser.positional().back();
    } else {
        std::cerr << "busarb_trace: expected an input file or "
                     "`audit <file>` (see --help)\n";
        return 2;
    }
    // Artifact destinations are validated before any decoding work.
    for (const char *flag : {"perfetto", "events-csv", "latency-csv",
                             "snapshot-out", "metrics-out"})
        requireParentDirOrExit("busarb_trace", flag,
                               parser.getString(flag));
    // Audit-only flags are meaningless (and silently misleading) on the
    // conversion path; reject them loudly instead.
    if (!audit) {
        for (const char *flag :
             {"snapshot-out", "metrics-out"}) {
            if (!parser.getString(flag).empty()) {
                std::cerr << "busarb_trace: --" << flag
                          << " requires the audit subcommand\n";
                return 2;
            }
        }
    }

    std::vector<std::uint8_t> bytes;
    if (!readFile(input, bytes)) {
        std::cerr << "busarb_trace: cannot read " << input << "\n";
        return 1;
    }

    std::vector<TraceChunk> chunks;
    try {
        chunks = readTraceChunks(bytes);
    } catch (const std::exception &err) {
        // Truncated or corrupt chunks are a usage-level failure (wrong
        // file, interrupted capture), distinct from I/O errors above.
        std::cerr << "busarb_trace: " << input
                  << ": corrupt or truncated trace: " << err.what()
                  << "\n";
        return 2;
    }

    if (audit)
        return runAudit(chunks, parser);

    const std::string perfetto_path = parser.getString("perfetto");
    const std::string events_path = parser.getString("events-csv");
    const std::string latency_path = parser.getString("latency-csv");
    const bool any_output = !perfetto_path.empty() ||
                            !events_path.empty() || !latency_path.empty();

    if (!perfetto_path.empty()) {
        if (!writeTextFile(perfetto_path, [&](std::ostream &os) {
                writePerfettoJson(chunks, os);
            }))
            return 1;
        std::cout << "wrote Perfetto JSON to " << perfetto_path << "\n";
    }
    if (!events_path.empty()) {
        if (!writeTextFile(events_path, [&](std::ostream &os) {
                writeEventsCsv(chunks, os);
            }))
            return 1;
        std::cout << "wrote events CSV to " << events_path << "\n";
    }
    if (!latency_path.empty()) {
        if (!writeTextFile(latency_path, [&](std::ostream &os) {
                writeLatencyCsv(chunks, os);
            }))
            return 1;
        std::cout << "wrote latency CSV to " << latency_path << "\n";
    }

    if (!any_output || parser.getBool("summary")) {
        std::size_t total_events = 0;
        for (const auto &chunk : chunks)
            total_events += chunk.events.size();
        std::cout << input << ": " << chunks.size() << " run(s), "
                  << total_events << " events\n\n";
        printLatencyBreakdown(chunks, std::cout);
    }
    return 0;
}
