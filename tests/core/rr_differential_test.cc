/**
 * @file
 * Differential tests: all three RR implementations against a trivial
 * cyclic-scan oracle, on narrow buses with one request per agent and on
 * buses wider than one mask word with queued, priority and mid-pass
 * requests.
 */

#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "core/round_robin.hh"
#include "random/rng.hh"
#include "support/protocol_driver.hh"

namespace busarb {
namespace {

using test::ProtocolDriver;

/**
 * Oracle: true round-robin. After serving j, scan j-1..1 then N..j and
 * serve the first requester found.
 */
class RrOracle
{
  public:
    explicit RrOracle(int n)
        : n_(n), pending_(static_cast<std::size_t>(n) + 1, false)
    {
    }

    void post(AgentId a) { pending_[static_cast<std::size_t>(a)] = true; }

    AgentId
    serveNext()
    {
        const AgentId pivot = (last_ == 0) ? n_ + 1 : last_;
        // Scan pivot-1 .. 1.
        for (AgentId a = pivot - 1; a >= 1; --a) {
            if (pending_[static_cast<std::size_t>(a)])
                return take(a);
        }
        // Then N .. pivot.
        for (AgentId a = n_; a >= pivot; --a) {
            if (a <= n_ && pending_[static_cast<std::size_t>(a)])
                return take(a);
        }
        return kNoAgent;
    }

  private:
    AgentId
    take(AgentId a)
    {
        pending_[static_cast<std::size_t>(a)] = false;
        last_ = a;
        return a;
    }

    int n_;
    AgentId last_ = 0;
    std::vector<bool> pending_;
};

class RrDifferentialTest
    : public ::testing::TestWithParam<RrImplementation>
{
};

TEST_P(RrDifferentialTest, MatchesCyclicScanOracle)
{
    Rng rng(0xCAFE + static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(14));
        RrConfig config;
        config.impl = GetParam();
        RoundRobinProtocol protocol(config);
        ProtocolDriver driver(protocol, n);
        RrOracle oracle(n);
        std::vector<bool> outstanding(static_cast<std::size_t>(n) + 1,
                                      false);
        int pending = 0;
        Tick now = 0;
        for (int step = 0; step < 400; ++step) {
            ++now;
            if (rng.below(100) < 55) {
                const AgentId a = 1 + static_cast<AgentId>(rng.below(
                                        static_cast<std::uint64_t>(n)));
                if (!outstanding[static_cast<std::size_t>(a)]) {
                    outstanding[static_cast<std::size_t>(a)] = true;
                    driver.post(a, now);
                    oracle.post(a);
                    ++pending;
                }
            }
            if (pending > 0 && rng.below(100) < 45) {
                const AgentId got = driver.arbitrateAndServe(now);
                const AgentId want = oracle.serveNext();
                ASSERT_EQ(got, want)
                    << "impl " << static_cast<int>(GetParam())
                    << " trial " << trial << " step " << step;
                outstanding[static_cast<std::size_t>(got)] = false;
                --pending;
            }
        }
    }
}

/**
 * Oracle for queued and priority traffic: true round-robin over the
 * agents with a pending request, where the priority class goes first
 * (and, unless the round-robin rule applies within the class, in plain
 * identity order). The winner serves its oldest priority request if it
 * has one, else its oldest request.
 */
class RrQueueOracle
{
  public:
    RrQueueOracle(int n, bool rr_within_priority_class)
        : n_(n), rrWithinClass_(rr_within_priority_class),
          queues_(static_cast<std::size_t>(n) + 1)
    {
    }

    void
    post(const Request &req)
    {
        queues_[static_cast<std::size_t>(req.agent)].push_back(req);
    }

    /**
     * @return The agent that wins now, or kNoAgent when no agent below
     *         the recorded winner is pending and `gate_below` is set
     *         (RR implementation 3's empty pass).
     */
    AgentId
    choose(bool gate_below) const
    {
        std::vector<AgentId> all;
        std::vector<AgentId> priority;
        for (AgentId a = 1; a <= n_; ++a) {
            const auto &q = queues_[static_cast<std::size_t>(a)];
            if (q.empty())
                continue;
            all.push_back(a);
            for (const auto &r : q) {
                if (r.priority) {
                    priority.push_back(a);
                    break;
                }
            }
        }
        if (!priority.empty()) {
            return rrWithinClass_ ? scan(priority) : priority.back();
        }
        if (gate_below && below(all) == kNoAgent)
            return kNoAgent;
        return scan(all);
    }

    /** Record the empty pass of RR implementation 3. */
    void resetPivot() { last_ = n_ + 1; }

    /** @return True if `agent` has a pending priority request. */
    bool
    hasPriority(AgentId agent) const
    {
        for (const auto &r : queues_[static_cast<std::size_t>(agent)]) {
            if (r.priority)
                return true;
        }
        return false;
    }

    /**
     * Serve `agent`'s oldest request of the class it presented.
     *
     * @return The served request's sequence number.
     */
    std::uint64_t
    serve(AgentId agent, bool priority)
    {
        auto &q = queues_[static_cast<std::size_t>(agent)];
        auto it = q.begin();
        while (it->priority != priority)
            ++it;
        const std::uint64_t seq = it->seq;
        q.erase(it);
        last_ = agent;
        return seq;
    }

  private:
    AgentId
    below(const std::vector<AgentId> &agents) const
    {
        AgentId best = kNoAgent;
        for (AgentId a : agents) {
            if (a < last_)
                best = a;
        }
        return best;
    }

    /** Scan last-1 .. 1, then N .. last. */
    AgentId
    scan(const std::vector<AgentId> &agents) const
    {
        const AgentId low = below(agents);
        return low != kNoAgent ? low : agents.back();
    }

    int n_;
    bool rrWithinClass_;
    AgentId last_ = 0x7fffffff;
    std::vector<std::deque<Request>> queues_;
};

/**
 * Random queued traffic on `n` agents (up to three outstanding requests
 * each, a `priority_pct` share of them priority requests), with some
 * requests posted while a pass is open; every served request must be
 * the oracle's.
 */
void
checkAgainstQueueOracle(const RrConfig &config, int n, int priority_pct,
                        std::uint64_t seed)
{
    Rng rng(seed);
    RoundRobinProtocol protocol(config);
    ProtocolDriver driver(protocol, n);
    RrQueueOracle oracle(n, config.rrWithinPriorityClass);
    const bool gate_below = config.impl == RrImplementation::kNoExtraLine;
    std::vector<int> outstanding(static_cast<std::size_t>(n) + 1, 0);
    int pending = 0;
    Tick now = 0;

    auto randomPost = [&](std::vector<Request> *posted) {
        const AgentId a = 1 + static_cast<AgentId>(
                                  rng.below(static_cast<std::uint64_t>(n)));
        if (outstanding[static_cast<std::size_t>(a)] >= 3)
            return;
        const bool priority =
            static_cast<int>(rng.below(100)) < priority_pct;
        const Request req = driver.post(a, now, priority);
        ++outstanding[static_cast<std::size_t>(a)];
        ++pending;
        if (posted != nullptr)
            posted->push_back(req);
        else
            oracle.post(req);
    };

    auto arbitrate = [&](bool late_posts) {
        std::vector<Request> late;
        const AgentId got = driver.arbitrateAndServe(now, [&] {
            if (!late_posts)
                return;
            for (int k = 0; k < 3; ++k)
                randomPost(&late);
        });
        // The competitors, and the class each presents, are fixed when
        // the pass begins.
        AgentId want = oracle.choose(gate_below);
        bool want_priority = want != kNoAgent && oracle.hasPriority(want);
        for (const auto &req : late)
            oracle.post(req);
        if (want == kNoAgent) {
            // Empty pass: the retry sees the requests posted during it.
            oracle.resetPivot();
            want = oracle.choose(gate_below);
            want_priority = oracle.hasPriority(want);
        }
        ASSERT_EQ(got, want) << "n " << n << " now " << now;
        ASSERT_EQ(driver.served().back().seq,
                  oracle.serve(want, want_priority))
            << "n " << n << " now " << now;
        --outstanding[static_cast<std::size_t>(got)];
        --pending;
    };

    for (int step = 0; step < 1500; ++step) {
        ++now;
        const int posts = static_cast<int>(rng.below(4));
        for (int k = 0; k < posts; ++k)
            randomPost(nullptr);
        if (pending > 0 && rng.below(100) < 70)
            arbitrate(rng.below(100) < 30);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (pending > 0) {
        ++now;
        arbitrate(false);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST_P(RrDifferentialTest, WideBusesWithQueuesMatchOracle)
{
    // Widths on both sides of the 64-bit mask word boundaries.
    RrConfig config;
    config.impl = GetParam();
    for (int n : {63, 64, 65, 127, 130}) {
        checkAgainstQueueOracle(
            config, n, 0,
            0xB0A7 + static_cast<std::uint64_t>(n) +
                (static_cast<std::uint64_t>(GetParam()) << 16));
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, RrDifferentialTest,
    ::testing::Values(RrImplementation::kPriorityBit,
                      RrImplementation::kLowRequestLine,
                      RrImplementation::kNoExtraLine));

class RrPriorityDifferentialTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(RrPriorityDifferentialTest, PriorityClassMatchesOracle)
{
    RrConfig config;
    config.impl = RrImplementation::kPriorityBit;
    config.enablePriority = true;
    config.rrWithinPriorityClass = GetParam();
    for (int n : {5, 63, 64, 65, 127, 130}) {
        checkAgainstQueueOracle(config, n, 25,
                                0x9A10 + static_cast<std::uint64_t>(n) +
                                    (GetParam() ? 1u << 20 : 0u));
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(RrWithinClassOnAndOff, RrPriorityDifferentialTest,
                         ::testing::Bool());

} // namespace
} // namespace busarb
