#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "experiment/workload_registry.hh"
#include "random/distributions.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "stats/batch_means.hh"
#include "stats/histogram.hh"
#include "stats/welford.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 7;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Keeps a computed value alive so the timed loop is not elided. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** State shared by every event of the hold model. */
struct HoldState
{
    busarb::EventQueue *queue;
    busarb::Rng rng;
    std::uint64_t meanDelay;
    std::uint64_t left;
};

/**
 * The hold-model event: executes, then schedules its successor. One
 * pointer wide, like the simulator's own callbacks, so it stays in the
 * callback's inline buffer.
 */
struct Hold
{
    HoldState *state;

    void
    operator()() const
    {
        if (state->left == 0)
            return;
        --state->left;
        const auto delay = static_cast<busarb::Tick>(
            1 + state->rng.below(2 * state->meanDelay));
        state->queue->scheduleIn(delay, Hold{state});
    }
};

std::unique_ptr<busarb::Distribution>
arrivalSampler(const busarb::ScenarioConfig &config)
{
    const busarb::AgentTraits &traits = config.agents.front();
    const double mean =
        traits.meanInterrequest > 0.0 ? traits.meanInterrequest : 1.0;
    busarb::WorkloadSpec spec;
    std::string error;
    if (busarb::WorkloadRegistry::builtin().parseSpec(config.workloadSpec,
                                                     spec, error) &&
        spec.key == "open") {
        std::string dist = "exp";
        double alpha = 1.5;
        for (const auto &[key, value] : spec.params) {
            if (key == "dist")
                dist = value;
            else if (key == "alpha")
                alpha = std::stod(value);
        }
        if (dist == "pareto")
            return std::make_unique<busarb::ParetoDistribution>(mean,
                                                                alpha);
        return std::make_unique<busarb::ExponentialDistribution>(mean);
    }
    return busarb::makeDistributionByCv(mean, traits.cv);
}

} // namespace

double
eventQueueNsPerEvent(std::size_t depth, busarb::EventQueuePolicy policy)
{
    constexpr std::uint64_t kEvents = 400'000;
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
        busarb::EventQueue queue(
            policy, busarb::CalendarTuning::forExpectedDepth(depth));
        // The simulator executes about four events per transaction
        // unit, so `depth` live events are held depth/4 units each.
        HoldState state{&queue,
                        busarb::Rng(0x9e3779b97f4a7c15ULL +
                                    static_cast<unsigned>(r)),
                        static_cast<std::uint64_t>(depth) *
                            busarb::kTicksPerUnit / 4,
                        kEvents};
        for (std::size_t i = 0; i < depth; ++i)
            queue.schedule(
                static_cast<busarb::Tick>(state.rng.below(state.meanDelay)),
                Hold{&state});
        const std::uint64_t before = queue.numExecuted();
        const auto start = Clock::now();
        while (queue.runOne()) {
        }
        const double ns = nsSince(start);
        rounds.push_back(ns /
                         static_cast<double>(queue.numExecuted() - before));
    }
    return median(rounds);
}

double
samplerNsPerArrival(const busarb::ScenarioConfig &config)
{
    constexpr int kSamples = 400'000;
    const std::unique_ptr<busarb::Distribution> sampler =
        arrivalSampler(config);
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
        busarb::Rng rng(config.seed + static_cast<unsigned>(r));
        double sum = 0.0;
        const auto start = Clock::now();
        for (int i = 0; i < kSamples; ++i)
            sum += sampler->sample(rng);
        const double ns = nsSince(start);
        keep(sum);
        rounds.push_back(ns / kSamples);
    }
    return median(rounds);
}

double
statsNsPerSample(std::size_t batch_size)
{
    constexpr std::size_t kSamples = 400'000;
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
        busarb::Rng rng(0x5eed + static_cast<unsigned>(r));
        std::vector<double> waits(kSamples);
        for (double &w : waits)
            w = 1.0 + 20.0 * rng.uniform();
        busarb::RunningStats running;
        busarb::RunningStats batch;
        busarb::Histogram histogram(0.25, 1200);
        busarb::BatchMeans means;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < kSamples; ++i) {
            running.add(waits[i]);
            batch.add(waits[i]);
            histogram.add(waits[i]);
            if ((i + 1) % batch_size == 0) {
                means.addBatch(batch.mean());
                batch.clear();
            }
        }
        keep(means.estimate());
        const double ns = nsSince(start);
        keep(running);
        keep(histogram);
        rounds.push_back(ns / static_cast<double>(kSamples));
    }
    return median(rounds);
}

DistCosts
measureDistCosts(const std::vector<busarb::ScenarioResult> &results,
                 const std::string &scratch_dir)
{
    DistCosts costs;
    if (results.empty())
        return costs;
    const double cells = static_cast<double>(results.size());

    std::vector<std::vector<std::uint8_t>> records;
    std::vector<double> encode_rounds;
    for (int r = 0; r < kRounds; ++r) {
        records.clear();
        const auto start = Clock::now();
        for (const busarb::ScenarioResult &result : results)
            records.push_back(busarb::encodeScenarioResult(result));
        encode_rounds.push_back(nsSince(start) / 1e3 / cells);
    }
    costs.encodeUsPerCell = median(encode_rounds);
    double bytes = 0.0;
    for (const auto &record : records)
        bytes += static_cast<double>(record.size());
    costs.bytesPerCell = bytes / cells;

    std::vector<double> decode_rounds;
    busarb::ScenarioResult decoded;
    std::string error;
    for (int r = 0; r < kRounds; ++r) {
        const auto start = Clock::now();
        for (const auto &record : records)
            if (!busarb::decodeScenarioResult(record.data(), record.size(),
                                              decoded, error))
                costs.roundTripOk = false;
        decode_rounds.push_back(nsSince(start) / 1e3 / cells);
    }
    costs.decodeUsPerCell = median(decode_rounds);
    for (const auto &record : records) {
        if (!busarb::decodeScenarioResult(record.data(), record.size(),
                                          decoded, error) ||
            busarb::encodeScenarioResult(decoded) != record)
            costs.roundTripOk = false;
    }

    busarb::ManifestHeader header;
    header.end = records.size();
    busarb::ManifestWriter writer;
    const std::string path = scratch_dir + "/perfbench-manifest.jsonl";
    std::remove(path.c_str());
    if (!writer.open(path, header, 0, error)) {
        costs.roundTripOk = false;
        return costs;
    }
    std::vector<double> appends;
    for (std::size_t cell = 0; cell < records.size(); ++cell) {
        const auto start = Clock::now();
        if (!writer.appendCell(cell, records[cell], error))
            costs.roundTripOk = false;
        appends.push_back(nsSince(start) / 1e6);
    }
    writer.close();
    std::remove(path.c_str());
    costs.manifestAppendMs = median(appends);
    return costs;
}

} // namespace perfbench
