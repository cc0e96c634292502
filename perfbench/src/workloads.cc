#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "experiment/csv.hh"

namespace perfbench {

namespace {

std::uint64_t
counterOr0(const busarb::ScenarioResult &result, const std::string &name)
{
    const auto &counters = result.metrics.counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

std::string
hexBits(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

} // namespace

double
CoreTally::nsPerRequest() const
{
    return sampledRequests == 0
               ? 0.0
               : requestNs / static_cast<double>(sampledRequests);
}

double
CoreTally::nsPerPass() const
{
    return sampledPasses == 0 ? 0.0
                              : passNs / static_cast<double>(sampledPasses);
}

double
CoreTally::nsPerTenure() const
{
    return sampledTenures == 0
               ? 0.0
               : tenureNs / static_cast<double>(sampledTenures);
}

double
CoreTally::estimatedNs() const
{
    return nsPerRequest() * static_cast<double>(requests) +
           nsPerPass() * static_cast<double>(passes) +
           nsPerTenure() * static_cast<double>(tenures);
}

double
clockOverheadNs()
{
    static const double overhead = [] {
        using Clock = std::chrono::steady_clock;
        std::vector<double> samples;
        samples.reserve(2001);
        for (int i = 0; i < 2001; ++i) {
            const auto start = Clock::now();
            const auto end = Clock::now();
            samples.push_back(
                std::chrono::duration<double, std::nano>(end - start)
                    .count());
        }
        std::nth_element(samples.begin(),
                         samples.begin() + samples.size() / 2,
                         samples.end());
        return samples[samples.size() / 2];
    }();
    return overhead;
}

busarb::ProtocolFactory
timedFactory(busarb::ProtocolFactory inner, CoreTally &tally)
{
    return [inner = std::move(inner), &tally]()
               -> std::unique_ptr<busarb::ArbitrationProtocol> {
        return std::make_unique<TimingProtocol>(inner(), tally);
    };
}

std::vector<busarb::GridJob>
tracedJobs(const std::vector<busarb::GridJob> &jobs,
           std::vector<CoreTally> &tallies)
{
    tallies.assign(jobs.size(), CoreTally{});
    std::vector<busarb::GridJob> traced = jobs;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        traced[i].factory = timedFactory(jobs[i].factory, tallies[i]);
        traced[i].config.profile = true;
    }
    return traced;
}

std::string
digestRow(const busarb::ScenarioResult &result, const std::string &label)
{
    std::ostringstream row;
    busarb::writeSummaryCsvRow(result, label, row);
    std::string text = row.str();
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    std::ostringstream tail;
    for (const char *name : {"bus.completions", "bus.passes",
                             "bus.retry_passes", "bus.busy_ticks",
                             "bus.exposed_arb_ticks"})
        tail << ',' << counterOr0(result, name);
    tail << ',' << hexBits(result.meanWait().value) << ','
         << hexBits(result.waitStddev().value);
    text.append(tail.str());
    return text;
}

std::uint64_t
cellTransactions(const busarb::ScenarioResult &result)
{
    return counterOr0(result, "bus.completions");
}

std::string
cellProblem(const busarb::ScenarioResult &result,
            const busarb::ScenarioConfig &config)
{
    const std::uint64_t expected =
        config.warmup + static_cast<std::uint64_t>(config.numBatches) *
                            config.batchSize;
    if (cellTransactions(result) < expected)
        return "completed " + std::to_string(cellTransactions(result)) +
               " transactions, expected " + std::to_string(expected);
    if (result.batches.size() !=
        static_cast<std::size_t>(config.numBatches))
        return "recorded " + std::to_string(result.batches.size()) +
               " batches, expected " +
               std::to_string(config.numBatches);
    if (!std::isfinite(result.meanWait().value) ||
        !std::isfinite(result.waitStddev().value) ||
        result.meanWait().value <= 0.0)
        return "non-finite or non-positive wait statistics";
    return "";
}

} // namespace perfbench
