#include "dist/worker_protocol.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "dist/shard_plan.hh"
#include "experiment/cli.hh"
#include "experiment/job_pool.hh"
#include "experiment/runner.hh"

namespace busarb {

namespace {

/** Consume "<key> " at the start of `line`, leaving the value. */
bool
takeKeyword(const std::string &line, const std::string &key,
            std::string &value)
{
    if (line.compare(0, key.size(), key) != 0 ||
        line.size() <= key.size() || line[key.size()] != ' ')
        return false;
    value = line.substr(key.size() + 1);
    return true;
}

bool
parseSize(const std::string &text, std::size_t &out)
{
    long value = 0;
    if (!parseLong(text, value) || value < 0)
        return false;
    out = static_cast<std::size_t>(value);
    return true;
}

/** @return Directory part of `path` ("." when there is no slash). */
std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

} // namespace

std::string
renderShardFile(std::uint64_t fingerprint, std::size_t shard,
                std::size_t begin, std::size_t end,
                const std::string &scenario_text,
                const SweepTuning &tuning)
{
    std::ostringstream os;
    os << "busarb-shard v" << kShardFileVersion << "\n"
       << "fingerprint " << fingerprintHex(fingerprint) << "\n"
       << "shard " << shard << "\n"
       << "begin " << begin << "\n"
       << "end " << end << "\n"
       << "tuning " << tuning.canonicalKey() << "\n"
       << "scenario\n"
       << scenario_text;
    return os.str();
}

bool
parseTuningKey(const std::string &text, SweepTuning &out,
               std::string &error)
{
    SweepTuning tuning;
    std::istringstream is(text);
    std::string field;
    while (std::getline(is, field, ';')) {
        const std::size_t eq = field.find('=');
        const std::string key = field.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : field.substr(eq + 1);
        const auto flag = [&](bool &target) {
            target = value == "1";
            return value == "0" || value == "1";
        };
        long bound = 0;
        bool ok = false;
        if (key == "trace") {
            ok = flag(tuning.captureTrace);
        } else if (key == "fairness") {
            ok = flag(tuning.fairness);
        } else if (key == "fairness-window") {
            ok = parseDouble(value, tuning.fairnessWindow);
        } else if (key == "bypass-bound") {
            ok = parseLong(value, bound) &&
                 bound == static_cast<int>(bound);
            tuning.bypassBound = static_cast<int>(bound);
        } else if (key == "health") {
            ok = flag(tuning.health);
        } else if (key == "health-rel-hw") {
            ok = parseDouble(value, tuning.healthRelHw);
        } else if (key == "health-lag1") {
            ok = parseDouble(value, tuning.healthLag1);
        } else if (key == "snapshot-every") {
            ok = parseDouble(value, tuning.snapshotEvery);
        } else if (key == "health-snapshots") {
            ok = flag(tuning.healthSnapshots);
        }
        if (!ok) {
            error = "bad tuning field '" + field + "'";
            return false;
        }
    }
    // Re-rendering catches missing, repeated and reordered fields.
    if (tuning.canonicalKey() != text) {
        error = "tuning key '" + text + "' is not canonical";
        return false;
    }
    const std::string value_error = tuningError(tuning);
    if (!value_error.empty()) {
        error = "tuning " + value_error;
        return false;
    }
    out = tuning;
    return true;
}

bool
parseShardFile(const std::string &text, ShardTask &out, std::string &error)
{
    std::istringstream is(text);
    std::string line;
    std::string value;

    if (!std::getline(is, line) ||
        line != "busarb-shard v" + std::to_string(kShardFileVersion)) {
        error = "not a busarb-shard v" +
                std::to_string(kShardFileVersion) + " file";
        return false;
    }

    ShardTask task;
    if (!std::getline(is, line) ||
        !takeKeyword(line, "fingerprint", value) ||
        !parseFingerprintHex(value, task.fingerprint)) {
        error = "bad fingerprint line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "shard", value) ||
        !parseSize(value, task.shard)) {
        error = "bad shard line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "begin", value) ||
        !parseSize(value, task.begin)) {
        error = "bad begin line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "end", value) ||
        !parseSize(value, task.end)) {
        error = "bad end line";
        return false;
    }
    if (!std::getline(is, line) || !takeKeyword(line, "tuning", value) ||
        !parseTuningKey(value, task.tuning, error)) {
        if (error.empty())
            error = "bad tuning line";
        return false;
    }
    if (!std::getline(is, line) || line != "scenario") {
        error = "missing scenario section";
        return false;
    }
    std::ostringstream scenario;
    scenario << is.rdbuf();

    if (!parseScenarioSpec(scenario.str(), task.spec, error)) {
        error = "scenario: " + error;
        return false;
    }
    if (task.begin >= task.end || task.end > task.spec.cellCount()) {
        error = "shard range [" + std::to_string(task.begin) + ", " +
                std::to_string(task.end) +
                ") does not fit the grid of " +
                std::to_string(task.spec.cellCount()) + " cells";
        return false;
    }
    // Re-derive the fingerprint from the parsed content; a mismatch
    // means the file was edited or written by a diverging build, and
    // running it would checkpoint unmergeable results.
    const std::uint64_t derived = sweepFingerprint(
        task.spec.format(), task.tuning.canonicalKey());
    if (derived != task.fingerprint) {
        error = "fingerprint " + fingerprintHex(task.fingerprint) +
                " does not match the task content (derived " +
                fingerprintHex(derived) + ")";
        return false;
    }
    out = std::move(task);
    return true;
}

int
runWorkerShard(const std::string &program,
               const std::string &shard_path, int jobs)
{
    std::ifstream in(shard_path, std::ios::binary);
    if (!in.is_open()) {
        std::cerr << program << ": cannot read shard file '"
                  << shard_path << "'\n";
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        std::cerr << program << ": error reading '" << shard_path
                  << "'\n";
        return 1;
    }

    ShardTask task;
    std::string error;
    if (!parseShardFile(buffer.str(), task, error)) {
        std::cerr << program << ": " << shard_path << ": " << error
                  << "\n";
        return 2;
    }

    const std::string manifest_path =
        shardManifestPath(dirnameOf(shard_path), task.shard);
    const ManifestHeader header{task.fingerprint, task.shard, task.begin,
                                task.end};
    ManifestContents recovered;
    switch (readManifest(manifest_path, header, recovered, error)) {
    case ManifestReadStatus::kOk:
    case ManifestReadStatus::kMissing:
        break;
    case ManifestReadStatus::kIoError:
        std::cerr << program << ": " << error << "\n";
        return 1;
    case ManifestReadStatus::kCorrupt:
        std::cerr << program << ": " << error << "\n";
        return 2;
    }

    ManifestWriter writer;
    if (!writer.open(manifest_path, header, recovered.validBytes,
                     error)) {
        std::cerr << program << ": " << error << "\n";
        return 1;
    }

    std::vector<std::size_t> todo;
    for (std::size_t cell = task.begin; cell < task.end; ++cell)
        if (recovered.cells.find(cell) == recovered.cells.end())
            todo.push_back(cell);

    // Chunked execution: each chunk runs its cells across the worker's
    // threads, then every finished cell is appended durably before the
    // next chunk starts. A kill therefore loses at most one chunk of
    // compute and zero checkpointed cells; jobs=1 (the fleet default)
    // degenerates to pure cell-at-a-time durability.
    const std::size_t chunk =
        static_cast<std::size_t>(resolveJobCount(jobs));
    for (std::size_t base = 0; base < todo.size(); base += chunk) {
        const std::size_t count =
            std::min(chunk, todo.size() - base);
        std::vector<GridJob> grid;
        grid.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            grid.push_back(sweepCellJob(task.spec, task.tuning, program,
                                        todo[base + i]));
        const std::vector<ScenarioResult> results =
            runScenarioGrid(grid, static_cast<int>(count));
        for (std::size_t i = 0; i < count; ++i) {
            if (!writer.appendCell(todo[base + i],
                                   encodeScenarioResult(results[i]),
                                   error)) {
                std::cerr << program << ": " << error << "\n";
                return 1;
            }
        }
    }
    return 0;
}

} // namespace busarb
