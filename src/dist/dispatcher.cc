#include "dist/dispatcher.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "dist/merge.hh"
#include "dist/shard_plan.hh"
#include "dist/worker_protocol.hh"
#include "experiment/cli.hh"
#include "experiment/job_pool.hh"
#include "experiment/table.hh"
#include "obs/sweep_progress.hh"

namespace busarb {

namespace {

/**
 * The sweep-identity file at the root of a shard directory. Byte
 * comparison against the expected rendering is the whole resume
 * validation: the text embeds the fingerprint, the canonical scenario,
 * and the canonical tuning key, so any observable difference — and
 * only an observable difference — makes it mismatch. (Job counts
 * are absent on purpose: a resume may change them.)
 */
std::string
renderGridSpec(std::uint64_t fingerprint, std::size_t cells,
               const std::string &scenario_text,
               const std::string &tuning_key)
{
    std::ostringstream os;
    os << "busarb-grid v1\n"
       << "fingerprint " << fingerprintHex(fingerprint) << "\n"
       << "cells " << cells << "\n"
       << "tuning " << tuning_key << "\n"
       << "scenario\n"
       << scenario_text;
    return os.str();
}

/** @return The running executable's path, for spawning workers. */
std::string
selfExePath(const std::string &fallback)
{
    char buffer[4096];
    const ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
    if (got <= 0)
        return fallback;
    buffer[got] = '\0';
    return buffer;
}

[[noreturn]] void
ioExit(const std::string &program, const std::string &message)
{
    std::cerr << program << ": " << message << "\n";
    std::exit(1);
}

[[noreturn]] void
specExit(const std::string &program, const std::string &message)
{
    std::cerr << program << ": " << message << "\n";
    std::exit(2);
}

bool
readFileText(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return false;
    out = buffer.str();
    return true;
}

bool
writeFileText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
        return false;
    out << text;
    out.flush();
    return static_cast<bool>(out);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One running worker process. */
struct Worker
{
    std::size_t shard = 0;
};

pid_t
spawnWorker(const std::string &exe, const std::string &shard_file,
            int jobs)
{
    const std::string jobs_text = std::to_string(jobs);
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child: exec the worker; _exit(127) keeps a failed exec from
    // returning into the coordinator's stack.
    ::execl(exe.c_str(), exe.c_str(), "--worker-shard",
            shard_file.c_str(), "--jobs", jobs_text.c_str(),
            static_cast<char *>(nullptr));
    std::cerr << "busarb_sweep: cannot exec worker '" << exe
              << "': " << std::strerror(errno) << "\n";
    ::_exit(127);
}

void
killFleet(std::map<pid_t, Worker> &running)
{
    for (const auto &[pid, worker] : running)
        ::kill(pid, SIGTERM);
    for (const auto &[pid, worker] : running) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    running.clear();
}

} // namespace

std::vector<ScenarioResult>
runShardedSweep(const ScenarioSpec &spec, const SweepTuning &tuning,
                const FleetOptions &opts)
{
    const std::string &program = opts.program;
    const std::size_t cells = spec.cellCount();
    const std::vector<ShardRange> plan = planShards(cells, opts.shards);
    const std::string scenario_text = spec.format();
    const std::string tuning_key = tuning.canonicalKey();
    const std::uint64_t fingerprint =
        sweepFingerprint(scenario_text, tuning_key);

    if (::mkdir(opts.shardDir.c_str(), 0755) != 0 && errno != EEXIST)
        ioExit(program, "cannot create shard directory '" +
                            opts.shardDir +
                            "': " + std::strerror(errno));

    // Sweep-identity gate. A directory carrying another sweep's
    // grid.spec is always refused; one carrying this sweep's
    // checkpoints is refused unless --resume says they are wanted.
    const std::string grid_text =
        renderGridSpec(fingerprint, cells, scenario_text, tuning_key);
    const std::string grid_path = gridSpecPath(opts.shardDir);
    std::string existing;
    const bool had_grid_spec = readFileText(grid_path, existing);
    if (had_grid_spec && existing != grid_text)
        specExit(program,
                 grid_path + ": shard directory belongs to a "
                             "different sweep (scenario, tuning, or "
                             "format version differs); remove it or "
                             "point --shard-dir elsewhere");
    bool have_checkpoints = false;
    for (const ShardRange &shard : plan) {
        struct stat st{};
        if (::stat(shardManifestPath(opts.shardDir, shard.index).c_str(),
                   &st) == 0)
            have_checkpoints = true;
    }
    if (have_checkpoints && !opts.resume)
        specExit(program,
                 opts.shardDir + ": shard directory already contains "
                                 "checkpoints; pass --resume to "
                                 "continue them or remove the "
                                 "directory to start over");
    if (have_checkpoints && !had_grid_spec)
        specExit(program, grid_path + ": missing (checkpoints exist "
                                      "but the sweep identity file "
                                      "is gone); remove the directory "
                                      "to start over");
    if (!had_grid_spec && !writeFileText(grid_path, grid_text))
        ioExit(program, "cannot write '" + grid_path + "'");

    // Task files are derived state; (re)write them every run so a
    // resume picks up a changed task-file format version.
    for (const ShardRange &shard : plan) {
        const std::string path =
            shardFilePath(opts.shardDir, shard.index);
        if (!writeFileText(path,
                           renderShardFile(fingerprint, shard.index,
                                           shard.begin, shard.end,
                                           scenario_text, tuning)))
            ioExit(program, "cannot write '" + path + "'");
    }

    const std::size_t fleet =
        opts.fleet > 0
            ? std::min(opts.fleet, plan.size())
            : std::min(plan.size(),
                       static_cast<std::size_t>(resolveJobCount(0)));
    const std::string exe = selfExePath(opts.exePath);

    std::deque<std::size_t> pending;
    for (const ShardRange &shard : plan)
        pending.push_back(shard.index);
    std::vector<int> retries_left(plan.size(), opts.retries);
    std::map<pid_t, Worker> running;
    std::size_t completed = 0;

    EtaEstimator eta;
    eta.start(nowSeconds());
    std::size_t last_done = 0;
    const auto show_progress = [&]() {
        std::size_t done = 0;
        for (const ShardRange &shard : plan)
            done += std::min(
                shard.size(),
                countManifestCells(
                    shardManifestPath(opts.shardDir, shard.index)));
        const double now = nowSeconds();
        if (done > last_done) {
            eta.onProgress(now, done);
            last_done = done;
        }
        std::cerr << "\r" << program << ": fleet " << running.size()
                  << " worker" << (running.size() == 1 ? "" : "s")
                  << ", shards " << completed << "/" << plan.size()
                  << ", cells " << done << "/" << cells;
        if (eta.primed())
            std::cerr << " eta="
                      << formatFixed(
                             eta.etaSeconds(cells - std::min(done, cells)),
                             1)
                      << "s";
        std::cerr << "   ";
        std::cerr.flush();
    };

    while (completed < plan.size()) {
        while (running.size() < fleet && !pending.empty()) {
            const std::size_t shard = pending.front();
            pending.pop_front();
            const pid_t pid = spawnWorker(
                exe, shardFilePath(opts.shardDir, shard),
                opts.workerJobs);
            if (pid < 0) {
                killFleet(running);
                ioExit(program, std::string("fork failed: ") +
                                    std::strerror(errno));
            }
            running.emplace(pid, Worker{shard});
        }

        int status = 0;
        pid_t pid = -1;
        if (opts.progress) {
            // Poll so the fleet line ticks while workers run; the
            // display reads manifest line counts, never results.
            for (;;) {
                pid = ::waitpid(-1, &status, WNOHANG);
                if (pid != 0)
                    break;
                show_progress();
                struct timespec nap{0, 200 * 1000 * 1000};
                ::nanosleep(&nap, nullptr);
            }
        } else {
            pid = ::waitpid(-1, &status, 0);
        }
        if (pid < 0) {
            killFleet(running);
            ioExit(program, std::string("waitpid failed: ") +
                                std::strerror(errno));
        }
        const auto it = running.find(pid);
        if (it == running.end())
            continue; // not one of ours (shouldn't happen)
        const std::size_t shard = it->second.shard;
        running.erase(it);

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            ++completed;
            continue;
        }
        if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
            // Spec-level failure: deterministic, retrying cannot help.
            killFleet(running);
            if (opts.progress)
                std::cerr << "\n";
            specExit(program,
                     "shard " + std::to_string(shard) +
                         " failed with a spec error (see worker "
                         "message above)");
        }
        // Crash or I/O failure: the manifest keeps every completed
        // cell, so a retry only re-runs the lost tail.
        if (retries_left[shard] > 0) {
            --retries_left[shard];
            pending.push_back(shard);
            continue;
        }
        killFleet(running);
        if (opts.progress)
            std::cerr << "\n";
        ioExit(program, "shard " + std::to_string(shard) +
                            " failed after " +
                            std::to_string(opts.retries) +
                            " retries; manifest '" +
                            shardManifestPath(opts.shardDir, shard) +
                            "' keeps the completed cells (re-run with "
                            "--resume to continue)");
    }
    if (opts.progress) {
        show_progress();
        std::cerr << "\n";
    }

    std::vector<ScenarioResult> results;
    std::string error;
    switch (collectShardResults(opts.shardDir, plan, fingerprint,
                                results, error)) {
    case MergeStatus::kOk:
        break;
    case MergeStatus::kIncomplete:
        // Every worker exited 0, so a gap here is a coordinator bug or
        // concurrent tampering; surface it as corruption.
        specExit(program, error + " (after all workers completed)");
    case MergeStatus::kCorrupt:
        specExit(program, error);
    case MergeStatus::kIoError:
        ioExit(program, error);
    }
    return results;
}

} // namespace busarb
