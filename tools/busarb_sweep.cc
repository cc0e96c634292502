/**
 * @file
 * busarb_sweep — sweep protocols across a load range and emit a CSV (or
 * table) of the paper's summary measures. The companion to busarb_sim
 * for producing plot-ready data.
 *
 * Scenario runs fan out across worker threads (--jobs); every cell of
 * the protocol x load grid is hermetic, so the output is bit-identical
 * at any job count.
 *
 *   busarb_sweep --protocols rr1,fcfs1,aap1 --agents 30 \
 *                --loads 0.25,0.5,1,1.5,2,2.5,5,7.5 --jobs 4 --csv out.csv
 *   busarb_sweep --grid examples/scenarios/table41.grid --csv out.csv
 *
 * A --grid scenario file (experiment/scenario_spec.hh) declares the
 * same sweep declaratively — including protocol specs with options,
 * which the comma-separated --protocols flag cannot express — and
 * expands through the same cell-assembly path, so a grid file
 * reproduces a flag invocation byte for byte.
 *
 * With --shards N (and a --shard-dir), the sweep becomes a
 * multi-process fleet: the grid is partitioned into shards, worker
 * processes (`busarb_sweep --worker-shard <task-file>`) checkpoint
 * each finished cell durably, and the coordinator reassembles the
 * results — every artifact byte-identical to the single-process run.
 * A killed run (workers or coordinator) continues with --resume from
 * whatever the checkpoints already hold. See docs/ORCHESTRATION.md.
 */

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dist/dispatcher.hh"
#include "dist/worker_protocol.hh"
#include "experiment/cli.hh"
#include "experiment/csv.hh"
#include "experiment/job_pool.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/table.hh"
#include "experiment/workload_registry.hh"
#include "obs/sweep_progress.hh"
#include "workload/scenario.hh"

namespace {

std::vector<std::string>
splitCsvList(const std::string &text)
{
    std::vector<std::string> parts;
    std::istringstream is(text);
    std::string token;
    while (std::getline(is, token, ',')) {
        if (!token.empty())
            parts.push_back(token);
    }
    return parts;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace busarb;

    ArgParser parser("busarb_sweep",
                     "sweep arbitration protocols across offered loads");
    parser.addStringFlag("grid", "",
                         "read the whole sweep (workload, run controls, "
                         "loads, protocol specs) from this scenario "
                         "file; conflicts with the axis flags");
    parser.addStringFlag("protocols", "rr1,fcfs1",
                         "comma-separated protocol keys (note: specs "
                         "with options are not usable here because of "
                         "the comma separator; use --grid)");
    parser.addStringFlag("loads", "0.25,0.5,1,1.5,2,2.5,5,7.5",
                         "comma-separated total offered loads");
    parser.addBoolFlag("list-protocols", false,
                       "print the protocol catalogue (keys, parameters, "
                       "defaults, paper sections) and exit");
    parser.addBoolFlag("list-workloads", false,
                       "print the workload-source catalogue (keys, "
                       "options, defaults) and exit");
    parser.addStringFlag("source", "closed",
                         "workload-source spec for every cell (see "
                         "--list-workloads); sources without a load "
                         "axis conflict with --loads");
    constexpr long kIntMax = std::numeric_limits<int>::max();
    parser.addIntFlag("agents", 10, "number of agents", 1, kIntMax);
    parser.addDoubleFlag("cv", 1.0,
                         "inter-request coefficient of variation");
    parser.addIntFlag("batches", 10, "measurement batches", 1, kIntMax);
    parser.addIntFlag("batch-size", 8000, "completions per batch", 1);
    parser.addIntFlag("jobs", 0,
                      "parallel scenario jobs (0 = one per hardware "
                      "thread, 1 = serial); any value produces "
                      "identical output. In fleet mode this is the "
                      "per-worker thread count (default 1)",
                      0, kIntMax);
    parser.addStringFlag("csv", "", "write CSV here instead of a table");
    addObserverFlags(parser);
    parser.addStringFlag("timing-csv", "",
                         "write per-cell wall-clock timing here (host "
                         "timing; varies run to run, so it is kept out "
                         "of the deterministic --csv file)");
    parser.addBoolFlag("progress", false,
                       "print a live progress/ETA line to stderr as grid "
                       "cells complete (stderr only, so stdout and every "
                       "artifact stay byte-identical)");
    parser.addIntFlag("shards", 0,
                      "partition the grid into this many shards and run "
                      "them as worker processes (requires --shard-dir); "
                      "0 or 1 = in-process",
                      0);
    parser.addStringFlag("shard-dir", "",
                         "directory for shard task files and durable "
                         "cell checkpoints (created if missing)");
    parser.addIntFlag("fleet", 0,
                      "max concurrent worker processes (0 = "
                      "min(shards, hardware threads))",
                      0);
    parser.addIntFlag("retries", 2,
                      "crash retries per shard before the sweep gives "
                      "up (each retry resumes from the shard's "
                      "checkpoints)",
                      0, kIntMax);
    parser.addBoolFlag("resume", false,
                       "continue a sharded sweep from the checkpoints "
                       "already in --shard-dir instead of refusing");
    parser.addStringFlag("worker-shard", "",
                         "internal: run one shard task file and "
                         "checkpoint its cells (spawned by the "
                         "coordinator; every other flag except --jobs "
                         "is ignored)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();
    if (!parser.getString("worker-shard").empty()) {
        return runWorkerShard("busarb_sweep",
                              parser.getString("worker-shard"),
                              static_cast<int>(parser.getInt("jobs")));
    }
    if (parser.getBool("list-protocols")) {
        ProtocolRegistry::builtin().printTable(std::cout);
        return 0;
    }
    if (parser.getBool("list-workloads")) {
        WorkloadRegistry::builtin().printTable(std::cout);
        return 0;
    }

    // Artifact destinations are validated before any cell runs: a
    // missing parent directory fails in seconds, not after the sweep.
    for (const char *flag : {"csv", "timing-csv"})
        requireParentDirOrExit("busarb_sweep", flag,
                               parser.getString(flag));
    // Every knob that shapes a cell lives in one SweepTuning: the
    // in-process path, the coordinator, and every worker derive their
    // cells from it through the same sweep_cells.hh assembly, which is
    // what keeps sharded artifacts byte-identical to this process's.
    const SweepTuning tuning =
        observerTuningOrExit("busarb_sweep", parser);

    const long shards_flag = parser.getInt("shards");
    const bool sharded = shards_flag > 1;
    if (sharded && parser.getString("shard-dir").empty()) {
        std::cerr << "busarb_sweep: --shards needs --shard-dir for the "
                     "task files and checkpoints\n";
        return 2;
    }
    if (!sharded) {
        for (const char *flag : {"shard-dir", "fleet", "resume"}) {
            if (parser.wasSet(flag)) {
                std::cerr << "busarb_sweep: --" << flag
                          << " only makes sense with --shards >= 2\n";
                return 2;
            }
        }
    }
    // Both axes plus the workload come from one ScenarioSpec, built
    // either from a --grid file or from the flags; cell assembly below
    // is shared, so the two inputs produce identical artifacts.
    ScenarioSpec spec;
    if (!parser.getString("grid").empty()) {
        static const char *const kOwned[] = {"protocols", "loads",
                                             "agents", "cv", "batches",
                                             "batch-size", "source"};
        for (const char *flag : kOwned) {
            if (parser.wasSet(flag)) {
                std::cerr << "busarb_sweep: --" << flag
                          << " conflicts with --grid (the file is the "
                             "single source of truth)\n";
                return 2;
            }
        }
        spec = scenarioSpecOrExit("busarb_sweep",
                                  parser.getString("grid"));
    } else {
        spec.family = "equal";
        spec.agents = static_cast<int>(parser.getInt("agents"));
        spec.cv = parser.getDouble("cv");
        spec.batches = static_cast<int>(parser.getInt("batches"));
        spec.batchSize = parser.getInt("batch-size");
        spec.source = parser.getString("source");
        workloadSpecOrExit("busarb_sweep", spec.source);
        if (spec.sourceTakesLoads()) {
            spec.loadTokens = splitCsvList(parser.getString("loads"));
        } else if (parser.wasSet("loads")) {
            // The source fixes its own arrival schedule; a load axis
            // would be silently ignored, so reject it loudly instead.
            std::cerr << "busarb_sweep: --loads conflicts with --source "
                      << spec.source
                      << " (the source fixes its own arrival "
                         "schedule)\n";
            return 2;
        }
        spec.protocolSpecs = splitCsvList(parser.getString("protocols"));
        for (const auto &token : spec.loadTokens)
            parseDoubleTokenOrExit("busarb_sweep", "loads", token);
        validateSpecOrExit("busarb_sweep", spec);
    }
    if (spec.family == "worst-case") {
        std::cerr << "busarb_sweep: family 'worst-case' has no load "
                     "axis; run it with busarb_sim\n";
        return 2;
    }

    // Sources without a load axis (trace replay) sweep the single
    // placeholder token "-", so row labels and metric prefixes stay
    // well-formed with one cell per protocol.
    if (spec.protocolSpecs.empty() || spec.loadAxis().empty()) {
        std::cerr << "need at least one protocol and one load\n";
        return 2;
    }
    // Duplicate keys would collide under the per-cell metric prefixes
    // (load=X.key.*) and silently double rows; reject them up front.
    const auto has_duplicate = [](const std::vector<std::string> &v) {
        for (std::size_t i = 0; i < v.size(); ++i)
            for (std::size_t j = i + 1; j < v.size(); ++j)
                if (v[i] == v[j])
                    return true;
        return false;
    };
    if (has_duplicate(spec.protocolSpecs)) {
        std::cerr << "busarb_sweep: duplicate key in --protocols\n";
        return 2;
    }
    if (has_duplicate(spec.loadAxis())) {
        std::cerr << "busarb_sweep: duplicate load in --loads\n";
        return 2;
    }

    std::ofstream file;
    std::ostream *csv = nullptr;
    if (!parser.getString("csv").empty()) {
        file.open(parser.getString("csv"));
        if (!file) {
            std::cerr << "cannot write " << parser.getString("csv")
                      << "\n";
            return 1;
        }
        csv = &file;
        writeSummaryCsvHeader(*csv);
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<ScenarioResult> results;
    int jobs = 0;
    if (sharded) {
        FleetOptions opts;
        opts.program = "busarb_sweep";
        opts.exePath = argv[0];
        opts.shardDir = parser.getString("shard-dir");
        opts.shards = static_cast<std::size_t>(shards_flag);
        opts.fleet = static_cast<std::size_t>(parser.getInt("fleet"));
        opts.retries = static_cast<int>(parser.getInt("retries"));
        // Workers default to one thread each — the fleet is the
        // parallelism — but an explicit --jobs passes through.
        opts.workerJobs =
            parser.wasSet("jobs")
                ? static_cast<int>(parser.getInt("jobs"))
                : 1;
        opts.resume = parser.getBool("resume");
        opts.progress = parser.getBool("progress");
        results = runShardedSweep(spec, tuning, opts);
        jobs = opts.workerJobs;
    } else {
        const std::vector<GridJob> grid =
            buildSweepGrid(spec, tuning, "busarb_sweep");
        jobs = resolveJobCount(static_cast<int>(parser.getInt("jobs")));

        // The live progress line is stderr-only and host-timing based;
        // stdout and every written artifact stay byte-identical with
        // or without it, at any job count. The ETA smooths per-cell
        // completion times (EWMA) instead of assuming uniform cost, so
        // it tracks grids whose high-load cells run much longer.
        std::function<void(std::size_t, std::size_t)> on_progress;
        auto eta = std::make_shared<EtaEstimator>();
        if (parser.getBool("progress")) {
            eta->start(nowSeconds());
            on_progress = [eta, start](std::size_t done,
                                       std::size_t total) {
                eta->onProgress(nowSeconds(), done);
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                std::cerr << "\rbusarb_sweep: " << done << "/" << total
                          << " cells elapsed="
                          << formatFixed(elapsed, 1) << "s";
                if (eta->primed())
                    std::cerr << " eta="
                              << formatFixed(
                                     eta->etaSeconds(total - done), 1)
                              << "s";
                std::cerr << "   ";
                if (done == total)
                    std::cerr << "\n";
                std::cerr.flush();
            };
        }
        results = runScenarioGrid(grid, jobs, on_progress);
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    // Cell i's label ("load=X.key") names it in health lines, metric
    // prefixes and the --health-strict message.
    std::vector<std::string> labels;
    TextTable table({"load", "protocol", "util", "W", "sigma W",
                     "t_N/t_1", "ms"});
    for (std::size_t cell = 0; cell < results.size(); ++cell) {
        const std::string &token = spec.cellLoadToken(cell);
        const std::string &key = spec.cellProtocolSpec(cell);
        const ScenarioResult &result = results[cell];
        labels.push_back("load=" + token + "." + key);
        if (csv != nullptr) {
            writeSummaryCsvRow(result, "load=" + token, *csv);
        } else {
            table.addRow({
                token,
                key,
                formatFixed(result.utilization().value, 2),
                formatEstimate(result.meanWait()),
                formatEstimate(result.waitStddev()),
                formatEstimate(result.throughputRatio(spec.agents, 1)),
                formatFixed(result.elapsedMs, 0),
            });
        }
    }
    if (csv != nullptr) {
        std::cout << "wrote " << results.size() << " rows to "
                  << parser.getString("csv") << "\n";
    } else {
        table.print(std::cout);
    }
    if (tuning.health) {
        for (std::size_t cell = 0; cell < results.size(); ++cell) {
            std::cout << "health[" << labels[cell] << "]: ";
            results[cell].health.print(std::cout);
            std::cout << "\n";
        }
    }
    if (!writeObserverOutputs(parser, results, labels, spec.format()))
        return 1;
    if (!parser.getString("timing-csv").empty()) {
        // Host wall-clock per cell. Deliberately a separate file from
        // --csv: timing varies run to run while the results CSV must
        // stay byte-identical across job counts.
        std::ofstream out(parser.getString("timing-csv"));
        out << "label,protocol,elapsed_ms\n";
        for (std::size_t cell = 0; cell < results.size(); ++cell)
            out << "load=" << spec.cellLoadToken(cell) << ","
                << spec.cellProtocolSpec(cell) << ","
                << formatFixed(results[cell].elapsedMs, 3) << "\n";
        if (!out) {
            std::cerr << "cannot write "
                      << parser.getString("timing-csv") << "\n";
            return 1;
        }
        std::cout << "wrote per-cell timing to "
                  << parser.getString("timing-csv") << "\n";
    }
    // Timing goes to stdout, never into the results CSV: that file must
    // stay byte-identical across job counts.
    std::cout << "jobs=" << jobs << " elapsed_ms="
              << formatFixed(elapsed_ms, 0) << "\n";
    return healthStrictExitCode("busarb_sweep", parser, results, labels);
}
