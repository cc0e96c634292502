/**
 * @file
 * busarb_perfbench: the measuring half of the benchmark. It receives
 * generated grid files (never a workload name or seed), drives the
 * library from outside through its public calls, and streams raw
 * measurements as JSON lines on stdout; perfbench/run.py turns them
 * into metrics and checks correctness.
 *
 *   busarb_perfbench --grid FILE... --seconds S --trace 0|1
 *                    --scratch DIR [--observe trace,fairness,health]
 *                    [--shards K]
 *
 * Sharded sweeps re-execute this binary as their workers
 * (`--worker-shard FILE --jobs J`, the dispatcher's contract); each
 * worker logs its start and its peak RSS in its shard directory, so
 * crash retries and worker memory can be read from outside.
 *
 * Output lines, in order: fingerprint, setup, then for every pass of
 * the untimed-by-tracing run phase one `setup_group` line, one `cell`
 * line per cell and one `pass` line; with --trace 1 the traced passes,
 * observer toggles and the isolated `layers` line follow; `end` closes
 * the stream.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dist/dispatcher.hh"
#include "dist/shard_plan.hh"
#include "dist/worker_protocol.hh"
#include "layers.hh"
#include "reference.hh"
#include "sim/profiling.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char *kProgram = "busarb_perfbench";
constexpr const char *kSpawnLog = "perfbench-spawns.log";

/** Set-up repetitions in one timed group; a group precedes each pass. */
constexpr int kSetupGroup = 20;

/** Worker processes of a sharded sweep, each at jobs 1. */
constexpr std::size_t kFleet = 2;

/** Fairness snapshot cadence when the fairness observer is on, units. */
constexpr double kSnapshotEvery = 100.0;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** One JSON object on one line; numbers keep every digit. */
class Line
{
  public:
    explicit Line(const std::string &kind) { str("kind", kind); }

    Line &
    str(const std::string &key, const std::string &value)
    {
        field(key);
        text_ += quote(value);
        return *this;
    }

    Line &
    num(const std::string &key, double value)
    {
        field(key);
        if (!std::isfinite(value)) {
            text_ += "null";
            return *this;
        }
        char buffer[40];
        std::snprintf(buffer, sizeof buffer, "%.17g", value);
        text_ += buffer;
        return *this;
    }

    Line &
    count(const std::string &key, std::uint64_t value)
    {
        field(key);
        text_ += std::to_string(value);
        return *this;
    }

    Line &
    flag(const std::string &key, bool value)
    {
        field(key);
        text_ += value ? "true" : "false";
        return *this;
    }

    Line &
    nums(const std::string &key, const std::vector<double> &values)
    {
        field(key);
        text_ += "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buffer[40];
            std::snprintf(buffer, sizeof buffer, "%.17g", values[i]);
            text_ += (i ? "," : "") + std::string(buffer);
        }
        text_ += "]";
        return *this;
    }

    void
    emit()
    {
        std::cout << text_ << "}\n";
        std::cout.flush();
    }

  private:
    void
    field(const std::string &key)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += quote(key) + ":";
    }

    static std::string
    quote(const std::string &value)
    {
        std::string out = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
        return out + "\"";
    }

    std::string text_;
};

struct Options
{
    std::vector<std::string> gridPaths;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
    std::vector<std::string> observe;
    std::size_t shards = 0; ///< 0 = in-process
};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << kProgram << ": " << message << "\n";
    std::exit(2);
}

std::vector<std::string>
splitComma(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

double
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(value) ||
        value < 0.0)
        usage("bad value '" + text + "' for " + flag);
    return value;
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--grid")
            opts.gridPaths.push_back(value);
        else if (flag == "--seconds")
            opts.seconds = parseNumber(flag, value);
        else if (flag == "--trace")
            opts.trace = parseNumber(flag, value) != 0.0;
        else if (flag == "--scratch")
            opts.scratch = value;
        else if (flag == "--observe")
            opts.observe = splitComma(value);
        else if (flag == "--shards")
            opts.shards = static_cast<std::size_t>(parseNumber(flag, value));
        else
            usage("unknown flag " + flag);
    }
    if (opts.gridPaths.empty())
        usage("need at least one --grid");
    if (opts.scratch.empty())
        usage("need --scratch");
    return opts;
}

/** Per-cell observers the benchmark can switch on. */
busarb::SweepTuning
tuningFor(const std::vector<std::string> &observers)
{
    busarb::SweepTuning tuning;
    for (const std::string &name : observers) {
        if (name == "trace") {
            tuning.captureTrace = true;
        } else if (name == "fairness") {
            tuning.fairness = true;
            tuning.snapshotEvery = kSnapshotEvery;
        } else if (name == "health") {
            tuning.health = true;
            tuning.healthSnapshots = true;
        } else {
            usage("unknown observer '" + name + "'");
        }
    }
    return tuning;
}

/** Print the build fingerprint; @return false for an untimeable build. */
bool
emitFingerprint()
{
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized = false;
#endif
    Line("fingerprint")
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("sanitize", PERFBENCH_SANITIZE)
        .flag("optimized", optimized)
        .flag("sanitized", sanitized)
        .flag("profiling", BUSARB_PROFILING_ENABLED != 0)
        .num("clock_overhead_ns", clockOverheadNs())
        .emit();
    return optimized && !sanitized;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        usage("cannot read '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/**
 * @return This process image's peak resident set in kB (VmHWM). Unlike
 *         getrusage's ru_maxrss it starts afresh at exec, so it never
 *         reports the RSS of whatever forked us.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atol(line.c_str() + 6);
    return 0;
}

/** Worker starts and the largest worker peak RSS, from a spawn log. */
struct SpawnLog
{
    std::size_t starts = 0;
    long peakKb = 0;

    static SpawnLog
    read(const std::string &path)
    {
        SpawnLog log;
        std::ifstream in(path);
        std::string word;
        long value = 0;
        while (in >> word >> value) {
            if (word == "start")
                ++log.starts;
            else if (word == "peak_kb")
                log.peakKb = std::max(log.peakKb, value);
        }
        return log;
    }
};

/** Everything one pass returns, with its host wall time. */
struct Pass
{
    std::vector<busarb::ScenarioResult> results;
    double wallMs = 0.0;
    std::size_t spawns = 0; ///< worker starts (sharded passes only)

    /** Calibration time around the whole pass (reference.hh). */
    double referenceNs = 0.0;

    /** Calibration time around each cell, for cell-by-cell passes. */
    std::vector<double> cellReferenceNs;

    /** True when the cells ran one at a time here: wall = their sum. */
    bool cellByCell = false;
};

class Bench
{
  public:
    explicit Bench(Options opts)
        : opts_(std::move(opts)),
          tuning_(tuningFor(opts_.observe))
    {
        for (const std::string &path : opts_.gridPaths)
            texts_.push_back(readFile(path));
        fs::create_directories(opts_.scratch);
    }

    int
    run()
    {
        if (!emitFingerprint()) {
            std::cerr << kProgram << ": refusing to time an unoptimized "
                                     "or sanitizer build\n";
            return 3;
        }
        loadGrids();
        const auto start = Clock::now();
        std::size_t pass = 0;
        do {
            timeSetupGroup(pass);
            const std::size_t k = pass % grids_.size();
            emitPass("run", pass, k,
                     sharded() ? calibrated([&] { return runSharded(k, pass); })
                               : runCellByCell(grids_[k].jobs),
                     nullptr);
            ++pass;
        } while (pass < grids_.size() ||
                 msSince(start) < opts_.seconds * 1e3);
        if (opts_.trace)
            tracedPhase();
        emitEnd();
        return 0;
    }

  private:
    bool sharded() const { return opts_.shards > 0; }

    /**
     * Run one pass between two reference measurements, so the pass's
     * time can be read against the host's speed at that moment.
     */
    template <typename F>
    static Pass
    calibrated(F &&run_pass)
    {
        const double before = referenceNs();
        Pass pass = run_pass();
        pass.referenceNs = (before + referenceNs()) / 2.0;
        return pass;
    }

    std::size_t
    slots() const
    {
        return sharded() ? std::min(kFleet, opts_.shards) : 1;
    }

    /** Parse and expand every grid once (cold, untimed). */
    void
    loadGrids()
    {
        for (std::size_t k = 0; k < texts_.size(); ++k) {
            Grid grid;
            grid.text = texts_[k];
            std::string error;
            if (!busarb::parseScenarioSpec(grid.text, grid.spec, error))
                usage(opts_.gridPaths[k] + ": " + error);
            if (grid.spec.cellCount() == 0)
                usage(opts_.gridPaths[k] + ": grid has no cells");
            grid.jobs = busarb::buildSweepGrid(grid.spec, tuning_, kProgram);
            grids_.push_back(std::move(grid));
        }
        Line("setup")
            .count("cells", grids_.front().jobs.size())
            .count("grids", grids_.size())
            .emit();
    }

    /**
     * Set-up as a user pays it before the first cell runs: parse the
     * grid, look up every protocol and source in the registries and
     * expand the cells; a sharded sweep also plans its shards and
     * renders the task files. Rendering is timed into memory: the
     * sweep writes the files itself, inside the pass, and disk time
     * there is fsync-bound noise that would swamp these microseconds.
     *
     * One group of warm repetitions, cycling through the grids, runs
     * between two calibration loops before every pass, so the groups
     * sample the host's speed over the whole run; the group reports
     * the median of its repetitions.
     */
    void
    timeSetupGroup(std::size_t index)
    {
        std::vector<double> total, parse_g, build_g;
        const double before = referenceNs();
        for (int i = 0; i < kSetupGroup; ++i) {
            const std::size_t k =
                (index * kSetupGroup + static_cast<std::size_t>(i)) %
                texts_.size();
            busarb::ScenarioSpec spec;
            std::string error;
            const auto t0 = Clock::now();
            if (!busarb::parseScenarioSpec(texts_[k], spec, error))
                usage(opts_.gridPaths[k] + ": " + error);
            const double parse = msSince(t0);
            const auto t1 = Clock::now();
            const std::vector<busarb::GridJob> jobs =
                busarb::buildSweepGrid(spec, tuning_, kProgram);
            const double build = msSince(t1);
            const auto t2 = Clock::now();
            if (sharded())
                renderTaskFiles(spec);
            const double plan = msSince(t2);
            total.push_back((parse + build + plan) / 1e3);
            parse_g.push_back(parse);
            build_g.push_back(build);
        }
        Line("setup_group")
            .count("pass", index)
            .num("reference_ns", (before + referenceNs()) / 2.0)
            .num("setup_s", median(total))
            .num("parse_ms", median(parse_g))
            .num("grid_build_ms", median(build_g))
            .emit();
    }

    /** Plan the shards and render their task files into memory. */
    void
    renderTaskFiles(const busarb::ScenarioSpec &spec) const
    {
        const std::string scenario_text = spec.format();
        const std::uint64_t fingerprint =
            busarb::sweepFingerprint(scenario_text, tuning_.canonicalKey());
        std::vector<std::string> files;
        for (const busarb::ShardRange &shard :
             busarb::planShards(spec.cellCount(), opts_.shards))
            files.push_back(busarb::renderShardFile(
                fingerprint, shard.index, shard.begin, shard.end,
                scenario_text, tuning_));
    }

    /**
     * A serial in-process pass, one cell at a time with the calibration
     * loop between cells; the pass's wall time is the sum of its cells.
     */
    static Pass
    runCellByCell(const std::vector<busarb::GridJob> &jobs)
    {
        Pass pass;
        pass.cellByCell = true;
        double before = referenceNs();
        for (const busarb::GridJob &job : jobs) {
            pass.results.push_back(
                std::move(busarb::runScenarioGrid({job}, 1).front()));
            const double after = referenceNs();
            pass.cellReferenceNs.push_back((before + after) / 2.0);
            pass.wallMs += pass.results.back().elapsedMs;
            before = after;
        }
        double sum = 0.0;
        for (const double ns : pass.cellReferenceNs)
            sum += ns;
        pass.referenceNs = sum / static_cast<double>(jobs.size());
        return pass;
    }

    static Pass
    runInProcess(const std::vector<busarb::GridJob> &jobs, int threads)
    {
        Pass pass;
        const auto start = Clock::now();
        pass.results = busarb::runScenarioGrid(jobs, threads);
        pass.wallMs = msSince(start);
        return pass;
    }

    Pass
    runSharded(std::size_t k, std::size_t index)
    {
        const std::string dir =
            opts_.scratch + "/sweep-" + std::to_string(index);
        fs::remove_all(dir);
        busarb::FleetOptions fleet;
        fleet.program = kProgram;
        fleet.shardDir = dir;
        fleet.shards = opts_.shards;
        fleet.fleet = kFleet;
        Pass pass;
        const auto start = Clock::now();
        pass.results = busarb::runShardedSweep(grids_[k].spec, tuning_, fleet);
        pass.wallMs = msSince(start);
        const SpawnLog log = SpawnLog::read(dir + "/" + kSpawnLog);
        pass.spawns = log.starts;
        workerPeakKb_ = std::max(workerPeakKb_, log.peakKb);
        fs::remove_all(dir);
        return pass;
    }

    void
    emitPass(const std::string &phase, std::size_t index, std::size_t k,
             const Pass &pass, const std::vector<CoreTally> *tallies)
    {
        const Grid &grid = grids_[k];
        std::uint64_t txns = 0;
        for (std::size_t c = 0; c < pass.results.size(); ++c) {
            const busarb::ScenarioResult &r = pass.results[c];
            const std::string label =
                "load=" + grid.spec.cellLoadToken(c);
            txns += cellTransactions(r);
            Line line("cell");
            line.str("phase", phase)
                .count("pass", index)
                .count("grid", k)
                .count("cell", c)
                .str("load", grid.spec.cellLoadToken(c))
                .str("protocol", grid.spec.cellProtocolSpec(c))
                .count("txns", cellTransactions(r))
                .num("ms", r.elapsedMs)
                .str("problem", cellProblem(r, grid.jobs[c].config))
                .num("wait_mean", r.meanWait().value)
                .num("wait_sd", r.waitStddev().value)
                .str("row", digestRow(r, label))
                .num("reference_ns", pass.cellByCell
                                         ? pass.cellReferenceNs[c]
                                         : pass.referenceNs);
            if (tallies != nullptr)
                addLayerFields(line, r, (*tallies)[c]);
            line.emit();
        }
        Line("pass")
            .str("phase", phase)
            .count("pass", index)
            .count("grid", k)
            .count("cells", pass.results.size())
            .count("txns", txns)
            .num("wall_ms", pass.wallMs)
            .num("reference_ns", pass.referenceNs)
            .flag("cell_by_cell", pass.cellByCell)
            .count("slots", slots())
            .count("spawns", pass.spawns)
            .count("shards",
                   sharded() ? busarb::planShards(grid.spec.cellCount(),
                                                  opts_.shards)
                                   .size()
                             : 0)
            .emit();
    }

    static void
    addLayerFields(Line &line, const busarb::ScenarioResult &r,
                   const CoreTally &tally)
    {
        const auto &gauges = r.metrics.gauges();
        const auto &counters = r.metrics.counters();
        const auto gauge = [&](const char *name) {
            const auto it = gauges.find(name);
            return it == gauges.end() ? 0.0 : it->second.mean();
        };
        const auto counter = [&](const char *name) -> std::uint64_t {
            const auto it = counters.find(name);
            return it == counters.end() ? 0 : it->second.value();
        };
        line.count("events", r.profile.eventsExecuted)
            .count("queue_max_depth", r.profile.maxQueueDepth)
            .count("requests", tally.requests)
            .count("passes", tally.passes)
            .count("retries", tally.retries)
            .num("ns_per_request", tally.nsPerRequest())
            .num("ns_per_pass", tally.nsPerPass())
            .num("core_ns", tally.estimatedNs())
            .num("utilization", gauge("bus.utilization"))
            .count("exposed_arb_ticks", counter("bus.exposed_arb_ticks"))
            .flag("open_loop", r.workload.openLoop)
            .count("issued", r.workload.openLoop ? r.workload.issued
                                                 : cellTransactions(r))
            .count("backlog", r.workload.finalBacklog)
            .count("trace_bytes", r.binaryTrace.size())
            .count("trace_capacity", r.binaryTrace.capacity());
    }

    /**
     * The per-layer run. Grids run once more, in order until a third
     * of the run's length has gone (the first always runs), with the
     * timing decorator and the self-profile on, in process at the run
     * phase's parallelism, so each digest can be compared with the
     * untraced passes; a sharded workload also runs each of those grids
     * in process untraced, the base of dist.share. Then the observer
     * toggles and the isolated layer timings.
     */
    void
    tracedPhase()
    {
        std::vector<busarb::ScenarioResult> last;
        const int threads = static_cast<int>(slots());
        const auto start = Clock::now();
        std::size_t index = 0;
        for (std::size_t k = 0;
             k < grids_.size() &&
             (k == 0 || msSince(start) < opts_.seconds * 1e3 / 3.0);
             ++k) {
            if (sharded()) {
                emitPass("inproc", index, k, calibrated([&] {
                             return runInProcess(grids_[k].jobs, threads);
                         }),
                         nullptr);
            }
            std::vector<CoreTally> tallies;
            const std::vector<busarb::GridJob> jobs =
                tracedJobs(grids_[k].jobs, tallies);
            Pass pass =
                sharded() ? calibrated([&] {
                    return runInProcess(jobs, threads);
                })
                          : runCellByCell(jobs);
            emitPass("traced", index, k, pass, &tallies);
            last = std::move(pass.results);
            ++index;
        }
        if (!opts_.observe.empty())
            toggleObservers();

        const busarb::ScenarioConfig &config =
            grids_.front().jobs[grids_.front().jobs.size() / 2].config;
        const DistCosts dist = measureDistCosts(last, opts_.scratch);
        Line("layers")
            .num("sim_ns_per_event",
                 eventQueueNsPerEvent(
                     static_cast<std::size_t>(config.numAgents) + 4,
                     config.eventQueuePolicy))
            .num("workload_ns_per_arrival", samplerNsPerArrival(config))
            .num("stats_ns_per_sample",
                 statsNsPerSample(static_cast<std::size_t>(
                     config.batchSize)))
            .num("encode_us_per_cell", dist.encodeUsPerCell)
            .num("decode_us_per_cell", dist.decodeUsPerCell)
            .num("bytes_per_cell", dist.bytesPerCell)
            .num("manifest_append_ms", dist.manifestAppendMs)
            .flag("codec_round_trip_ok", dist.roundTripOk)
            .emit();
    }

    /**
     * Observer attribution: every cell of the first grid runs with no
     * observer, with each observer alone, and with all of them, the
     * five runs back to back in an order rotated per cell so drift
     * spreads evenly over the configurations.
     */
    void
    toggleObservers()
    {
        std::vector<std::pair<std::string, busarb::SweepTuning>> configs;
        configs.emplace_back("off", busarb::SweepTuning{});
        for (const std::string &name : opts_.observe)
            configs.emplace_back(name,
                                 tuningFor({name}));
        configs.emplace_back("all", tuning_);
        std::vector<double> ms(configs.size(), 0.0);
        const Grid &grid = grids_.front();
        for (std::size_t c = 0; c < grid.spec.cellCount(); ++c) {
            for (std::size_t j = 0; j < configs.size(); ++j) {
                const std::size_t which = (c + j) % configs.size();
                const busarb::GridJob job = busarb::sweepCellJob(
                    grid.spec, configs[which].second, kProgram, c);
                ms[which] += busarb::runScenarioGrid({job}, 1)
                                 .front()
                                 .elapsedMs;
            }
        }
        for (std::size_t j = 0; j < configs.size(); ++j)
            Line("toggle")
                .str("config", configs[j].first)
                .count("cells", grid.spec.cellCount())
                .num("ms", ms[j])
                .emit();
    }

    void
    emitEnd() const
    {
        const long kb = std::max(peakRssKb(), workerPeakKb_);
        Line("end").num("peak_rss_mb", static_cast<double>(kb) / 1024.0).emit();
    }

    Options opts_;
    busarb::SweepTuning tuning_;
    std::vector<std::string> texts_;
    std::vector<Grid> grids_;
    long workerPeakKb_ = 0;
};

/** A fleet worker: log the start, then run the shard. */
int
workerMain(int argc, char **argv)
{
    if (argc != 3 && argc != 5)
        usage("usage: --worker-shard FILE [--jobs J]");
    const std::string task = argv[2];
    const int jobs = argc == 5 ? std::atoi(argv[4]) : 1;
    const fs::path log = fs::path(task).parent_path() / kSpawnLog;
    std::ofstream(log, std::ios::app) << "start 1\n";
    const int status = busarb::runWorkerShard(kProgram, task, jobs);
    std::ofstream(log, std::ios::app) << "peak_kb " << peakRssKb() << "\n";
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--worker-shard") == 0)
        return workerMain(argc, argv);
    return Bench(parseOptions(argc, argv)).run();
}
