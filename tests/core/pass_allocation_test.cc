/**
 * @file
 * Steady-state arbitration passes must not touch the heap: this binary
 * replaces the global operator new with a counting one and drives
 * every distributed protocol through many passes, with and without the
 * settle-round count the bus engine asks for under settle timing (the
 * ticket baseline has no signal-level model, so it runs without).
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "random/rng.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

// The replacement operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace busarb {
namespace {

class PassAllocationTest
    : public ::testing::TestWithParam<std::tuple<const char *, bool>>
{
};

TEST_P(PassAllocationTest, SteadyStatePassesDoNotAllocate)
{
    const auto [spec, settle] = GetParam();
    const int n = 64;
    auto protocol = ProtocolRegistry::builtin().fromSpec(spec)();
    protocol->reset(n);
    Rng rng(0xA110C);
    std::uint64_t seq = 0;
    Tick now = 0;
    // Closed loop: most agents have a request pending; a served agent
    // hands its next request to a random idle agent (or itself), and
    // some requests arrive while a pass is open.
    std::vector<AgentId> idle;
    auto post = [&](AgentId agent) {
        Request req;
        req.agent = agent;
        req.issued = now;
        req.seq = ++seq;
        protocol->requestPosted(req);
    };
    for (AgentId a = 1; a <= n; ++a) {
        if (rng.below(4) == 0)
            idle.push_back(a);
        else
            post(a);
    }
    int rounds_seen = 0;
    auto runPasses = [&](int passes) {
        for (int i = 0; i < passes; ++i) {
            ++now;
            protocol->beginPass(now);
            if (settle)
                rounds_seen += protocol->settleRoundsForPass() > 0 ? 1 : 0;
            AgentId late = kNoAgent;
            if (!idle.empty() && rng.below(4) == 0) {
                const auto k = rng.below(idle.size());
                late = idle[k];
                idle[k] = idle.back();
                idle.pop_back();
                post(late);
            }
            const PassResult result = protocol->completePass(now);
            if (result.kind != PassResult::Kind::kWinner)
                continue;
            protocol->tenureStarted(result.winner, now);
            protocol->tenureEnded(result.winner, now + 1);
            AgentId next = result.winner.agent;
            if (!idle.empty() && rng.below(2) == 0)
                std::swap(next, idle[rng.below(idle.size())]);
            post(next);
        }
    };
    idle.reserve(static_cast<std::size_t>(n));
    runPasses(2000); // reach steady-state capacities
    const std::uint64_t before = allocations.load();
    runPasses(10000);
    const std::uint64_t during = allocations.load() - before;
    EXPECT_EQ(during, 0u) << spec << (settle ? " with" : " without")
                          << " settle timing";
    if (settle) {
        EXPECT_GT(rounds_seen, 0);
    }
}

std::vector<std::tuple<const char *, bool>>
protocolCases()
{
    std::vector<std::tuple<const char *, bool>> cases;
    for (const char *spec : {"rr1", "fcfs1", "aap1", "aap2", "fixed",
                             "fixed:priority", "hybrid", "wrr", "ticket"}) {
        for (const bool settle : {false, true}) {
            if (!(settle && std::string(spec) == "ticket"))
                cases.emplace_back(spec, settle);
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ArbitrationProtocols, PassAllocationTest,
    ::testing::ValuesIn(protocolCases()), [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (char &ch : name) {
            if (ch == ':')
                ch = '_';
        }
        return name + (std::get<1>(info.param) ? "_settle" : "_fixed");
    });

} // namespace
} // namespace busarb
