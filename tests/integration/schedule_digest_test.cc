/**
 * @file
 * Schedule pins: a digest over every field of every bus event a run
 * emits, for aap2, fixed, hybrid, wrr and ticket under closed load,
 * queued (and, where enabled, priority) traffic, dynamic and
 * worst-case settle timing, and an open-loop source.
 *
 * These protocols resolve a pass from frozen mask words and per-agent
 * stamps. Any change to how they freeze, order or settle competitors
 * that moves a single grant, tick or retry changes a digest here, so a
 * restructuring of the pass path either keeps every schedule bit for
 * bit or names the schedules it moves.
 */

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

/** FNV-1a over every TraceEvent field, in stream order. */
class DigestSink final : public TraceSink
{
  public:
    void
    consume(const TraceEvent &event) override
    {
        mix(static_cast<std::uint64_t>(event.kind));
        mix(static_cast<std::uint64_t>(event.tick));
        mix(static_cast<std::uint64_t>(event.agent));
        mix(event.seq);
        mix(event.priority ? 1 : 0);
        mix(event.retry ? 1 : 0);
        mix(static_cast<std::uint64_t>(event.passStart));
        mix(event.counterId);
        mix(event.counterValue);
        ++events_;
    }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t events() const { return events_; }

  private:
    void
    mix(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
    std::uint64_t events_ = 0;
};

enum class Condition {
    kClosed,        ///< one request per agent, 67 agents (two mask words)
    kQueues,        ///< 3-deep queues, 20% priority where enabled
    kDynamicSettle, ///< kQueues under per-pass settle rounds
    kWorstCase,     ///< kQueues under the ceil(k/2) settle budget
    kOpenLoop,      ///< Pareto open-loop arrivals, priority as kQueues
};

const char *
conditionName(Condition condition)
{
    switch (condition) {
      case Condition::kClosed:
        return "closed";
      case Condition::kQueues:
        return "queues";
      case Condition::kDynamicSettle:
        return "settle";
      case Condition::kWorstCase:
        return "worstcase";
      case Condition::kOpenLoop:
        return "open";
    }
    return "?";
}

ScenarioConfig
scenarioFor(Condition condition, bool priority_traffic)
{
    const bool closed = condition == Condition::kClosed;
    const bool open = condition == Condition::kOpenLoop;
    ScenarioConfig config =
        equalLoadScenario(closed ? 67 : 10, open ? 0.9 : 2.0);
    config.numBatches = 2;
    config.batchSize = 2500;
    config.warmup = 500;
    config.seed = 0xd16e57;
    if (open)
        config.workloadSpec = "open:dist=pareto,alpha=1.5";
    for (auto &agent : config.agents) {
        if (!closed)
            agent.priorityFraction = priority_traffic ? 0.2 : 0.0;
        if (!closed && !open)
            agent.maxOutstanding = 3;
    }
    if (condition == Condition::kDynamicSettle ||
        condition == Condition::kWorstCase) {
        config.bus.settleTiming = true;
        config.bus.propagationDelay = 0.05;
        config.bus.controlRounds = 4;
        config.bus.settleMode = condition == Condition::kWorstCase
                                    ? BusParams::SettleMode::kWorstCase
                                    : BusParams::SettleMode::kDynamic;
    }
    return config;
}

struct DigestCase
{
    const char *spec;
    Condition condition;
    std::uint64_t events;
    std::uint64_t digest;
};

std::string
caseName(const DigestCase &c)
{
    std::string name = std::string(c.spec) + "_" +
                       conditionName(c.condition);
    for (char &ch : name) {
        const bool alnum = (ch >= 'a' && ch <= 'z') ||
                           (ch >= 'A' && ch <= 'Z') ||
                           (ch >= '0' && ch <= '9');
        if (!alnum)
            ch = '_';
    }
    return name;
}

/** Keeps test listings stable: a case prints as its name. */
void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class ScheduleDigestTest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(ScheduleDigestTest, EventStreamMatchesPinnedDigest)
{
    const DigestCase &c = GetParam();
    const std::string spec = c.spec;
    const bool priority = spec.find(":priority") != std::string::npos;
    ScenarioConfig config = scenarioFor(c.condition, priority);
    DigestSink sink;
    config.tracer = &sink;
    runScenario(config, ProtocolRegistry::builtin().fromSpec(spec));
    char actual[96];
    std::snprintf(actual, sizeof actual, "%llu, 0x%016llxULL",
                  static_cast<unsigned long long>(sink.events()),
                  static_cast<unsigned long long>(sink.digest()));
    EXPECT_EQ(sink.events(), c.events) << "pinned as: " << actual;
    EXPECT_EQ(sink.digest(), c.digest) << "pinned as: " << actual;
}

constexpr Condition kClosed = Condition::kClosed;
constexpr Condition kQueues = Condition::kQueues;
constexpr Condition kSettle = Condition::kDynamicSettle;
constexpr Condition kWorst = Condition::kWorstCase;
constexpr Condition kOpen = Condition::kOpenLoop;

const DigestCase kCases[] = {
    {"aap2", kClosed, 27721, 0xf77acf5ddb9c7925ULL},
    {"aap2", kQueues, 28137, 0x2a5d9594e998a165ULL},
    {"aap2", kSettle, 28138, 0x296bf10c8e3ef7daULL},
    {"aap2", kWorst, 28137, 0x23ee3a7d32f8c5d7ULL},
    {"aap2", kOpen, 28965, 0x0550a143fa534f82ULL},
    {"aap2:priority", kClosed, 27721, 0xf77acf5ddb9c7925ULL},
    {"aap2:priority", kQueues, 28042, 0xf8d32cf48b488ebfULL},
    {"aap2:priority", kSettle, 28043, 0xa8cb29ff4be19ceeULL},
    // Five arbitration lines (identity + priority), so the worst-case
    // budget is 3 rounds per pass, not the 2 of the four identity lines.
    {"aap2:priority", kWorst, 28043, 0xcd4f0e42a6b448ebULL},
    {"aap2:priority", kOpen, 28432, 0xc040817e8555eb20ULL},
    {"fixed", kClosed, 27537, 0xd9eff8f64bc50195ULL},
    {"fixed", kQueues, 27526, 0xa56b9894ce424086ULL},
    {"fixed", kSettle, 27526, 0x9abfcab16978c0a1ULL},
    {"fixed", kWorst, 27526, 0x91ce0b495352e21dULL},
    {"fixed", kOpen, 27523, 0xc001b2f7d178cc4aULL},
    {"fixed:priority", kClosed, 27537, 0xd9eff8f64bc50195ULL},
    {"fixed:priority", kQueues, 27528, 0x69bd7424dab785b9ULL},
    {"fixed:priority", kSettle, 27528, 0x48493b8afb432e5bULL},
    {"fixed:priority", kWorst, 27528, 0x22163c16c0cf5b80ULL},
    {"fixed:priority", kOpen, 27600, 0x5d574510570ce47cULL},
    {"hybrid", kClosed, 27537, 0x6bbc55d62c365b63ULL},
    {"hybrid", kQueues, 27527, 0xa7dec66b026e856aULL},
    {"hybrid", kSettle, 27527, 0xbdb61f46b5591ef4ULL},
    {"hybrid", kWorst, 27527, 0x09cbd62487e49e90ULL},
    {"hybrid", kOpen, 27523, 0x544a8976508e7b1dULL},
    {"wrr:weights=3", kClosed, 27535, 0xe731f74010d6f087ULL},
    {"wrr:weights=3", kQueues, 27528, 0x2b372db76bafee01ULL},
    {"wrr:weights=3", kSettle, 27529, 0x93d45d70dba4275bULL},
    {"wrr:weights=3", kWorst, 27528, 0xd7bf0f41c42143e0ULL},
    {"wrr:weights=3", kOpen, 27523, 0x8d8bdc63a8c4b9afULL},
    {"ticket", kClosed, 27540, 0x93bd712299679b38ULL},
    {"ticket", kQueues, 27526, 0xcacb2d5decfa3fb6ULL},
    {"ticket", kSettle, 27526, 0xcacb2d5decfa3fb6ULL},
    {"ticket", kWorst, 27526, 0xcacb2d5decfa3fb6ULL},
    {"ticket", kOpen, 27523, 0x1706f97c3a1ebd3dULL},
    {"ticket:bits=4", kClosed, 27537, 0x5f84c96184501be6ULL},
    {"ticket:bits=4", kQueues, 27530, 0x0d05fcc0f326f39dULL},
    {"ticket:bits=4", kSettle, 27530, 0x0d05fcc0f326f39dULL},
    {"ticket:bits=4", kWorst, 27530, 0x0d05fcc0f326f39dULL},
    {"ticket:bits=4", kOpen, 27523, 0x24b8427ac87a9967ULL},
};

INSTANTIATE_TEST_SUITE_P(
    Protocols, ScheduleDigestTest, ::testing::ValuesIn(kCases),
    [](const auto &info) { return caseName(info.param); });

} // namespace
} // namespace busarb
