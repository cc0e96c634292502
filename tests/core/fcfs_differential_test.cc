/**
 * @file
 * Differential tests: the distributed FCFS protocol against an oracle
 * that sorts requests by (pulse epoch, static identity) — the order the
 * hardware is specified to produce (Section 3.2) — and against a
 * per-request counter oracle for the increment-on-lose strategy.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bus/contention.hh"
#include "core/fcfs.hh"
#include "random/rng.hh"
#include "support/protocol_driver.hh"

namespace busarb {
namespace {

using test::ProtocolDriver;

/** A request the oracle tracks. */
struct OracleRequest
{
    AgentId agent;
    Tick issued;
    std::uint64_t epoch;
};

/**
 * Oracle for FCFS implementation 2: arrival epochs (pulse windows)
 * ordered ascending; ties within an epoch by descending identity.
 */
class IncrLineOracle
{
  public:
    explicit IncrLineOracle(Tick window) : window_(window) {}

    void
    post(AgentId agent, Tick now)
    {
        if (!any_ || now - lastPulse_ >= window_) {
            ++epoch_;
            lastPulse_ = now;
            any_ = true;
        }
        pending_.push_back(OracleRequest{agent, now, epoch_});
    }

    AgentId
    serveNext()
    {
        auto best = pending_.begin();
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->epoch < best->epoch ||
                (it->epoch == best->epoch && it->agent > best->agent)) {
                best = it;
            }
        }
        const AgentId agent = best->agent;
        pending_.erase(best);
        return agent;
    }

    bool empty() const { return pending_.empty(); }

  private:
    Tick window_;
    Tick lastPulse_ = 0;
    bool any_ = false;
    std::uint64_t epoch_ = 0;
    std::vector<OracleRequest> pending_;
};

TEST(FcfsDifferentialTest, IncrLineMatchesEpochOracle)
{
    Rng rng(0xD1FF);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 3 + static_cast<int>(rng.below(10));
        const Tick window = unitsToTicks(0.05);
        FcfsConfig config;
        config.strategy = FcfsStrategy::kIncrLine;
        config.incrWindow = 0.05;
        FcfsProtocol protocol(config);
        ProtocolDriver driver(protocol, n);
        IncrLineOracle oracle(window);

        // Random bursts of arrivals (single-outstanding per agent),
        // interleaved with arbitrations.
        std::vector<bool> outstanding(static_cast<std::size_t>(n) + 1,
                                      false);
        Tick now = 0;
        int pending = 0;
        for (int step = 0; step < 300; ++step) {
            now += static_cast<Tick>(rng.below(unitsToTicks(0.4)));
            if (rng.below(100) < 55) {
                const AgentId a = 1 + static_cast<AgentId>(rng.below(
                                        static_cast<std::uint64_t>(n)));
                if (!outstanding[static_cast<std::size_t>(a)]) {
                    outstanding[static_cast<std::size_t>(a)] = true;
                    driver.post(a, now);
                    oracle.post(a, now);
                    ++pending;
                }
            }
            if (pending > 0 && rng.below(100) < 45) {
                const AgentId got = driver.arbitrateAndServe(now);
                const AgentId want = oracle.serveNext();
                ASSERT_EQ(got, want)
                    << "trial " << trial << " step " << step;
                outstanding[static_cast<std::size_t>(got)] = false;
                --pending;
            }
        }
        // Drain.
        while (pending > 0) {
            now += unitsToTicks(1.0);
            const AgentId got = driver.arbitrateAndServe(now);
            const AgentId want = oracle.serveNext();
            ASSERT_EQ(got, want) << "drain, trial " << trial;
            --pending;
        }
        EXPECT_TRUE(oracle.empty());
    }
}

TEST(FcfsDifferentialTest, CountersNeverExceedTheSingleOutstandingBound)
{
    // Section 3.2: with one outstanding request per agent, at most N
    // requests can be served while a request waits, so ceil(log2(N+1))
    // counter bits never overflow.
    Rng rng(0xB0B);
    const int n = 10;
    FcfsConfig config;
    config.strategy = FcfsStrategy::kIncrementOnLose;
    FcfsProtocol protocol(config);
    ProtocolDriver driver(protocol, n);
    std::vector<bool> outstanding(static_cast<std::size_t>(n) + 1, false);
    int pending = 0;
    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        ++now;
        const AgentId a = 1 + static_cast<AgentId>(
                                rng.below(static_cast<std::uint64_t>(n)));
        if (!outstanding[static_cast<std::size_t>(a)]) {
            outstanding[static_cast<std::size_t>(a)] = true;
            driver.post(a, now);
            ++pending;
        }
        if (pending > 0 && rng.below(100) < 60) {
            const AgentId got = driver.arbitrateAndServe(now);
            outstanding[static_cast<std::size_t>(got)] = false;
            --pending;
        }
    }
    EXPECT_EQ(protocol.overflowEvents(), 0u);
}

/**
 * Oracle for FCFS implementation 1, written the way Section 3.2 states
 * it: every request keeps its own waiting-time counter; at the end of
 * each arbitration every request that observed it and lost increments
 * its counter (only on a winner of its own class under matched
 * increment); an agent presents its maximum-word request, the oldest
 * among equals.
 */
class CounterOracle
{
  public:
    CounterOracle(const FcfsConfig &config, int n, int counter_bits)
        : config_(config), idBits_(linesForAgents(n)),
          counterBits_(counter_bits),
          counterMax_((1ULL << counter_bits) - 1ULL)
    {
    }

    void
    post(const Request &req)
    {
        pending_.push_back(Entry{req, 0, false});
    }

    /** Requests pending now observe the pass that begins. */
    void
    beginPass()
    {
        for (auto &e : pending_)
            e.inPass = true;
    }

    /** Resolve the pass; @return the served request. */
    Request
    resolve()
    {
        // The maximum word over the observing requests; an agent's
        // requests tie only among themselves, and the oldest comes first.
        const Entry *best = nullptr;
        std::uint64_t best_word = 0;
        for (const auto &e : pending_) {
            if (!e.inPass)
                continue;
            const std::uint64_t w = word(e);
            if (best == nullptr || w > best_word) {
                best = &e;
                best_word = w;
            }
        }
        const Request won = best->req;
        for (auto &e : pending_) {
            if (!e.inPass || e.req.seq == won.seq)
                continue;
            if (config_.enablePriority &&
                config_.priorityCounting ==
                    PriorityCounting::kMatchedIncrement &&
                e.req.priority != won.priority) {
                continue;
            }
            if (++e.counter == counterMax_ + 1)
                ++overflows_;
        }
        for (auto &e : pending_)
            e.inPass = false;
        pending_.erase(std::find_if(
            pending_.begin(), pending_.end(),
            [&](const Entry &e) { return e.req.seq == won.seq; }));
        return won;
    }

    std::uint64_t overflows() const { return overflows_; }

  private:
    struct Entry
    {
        Request req;
        std::uint64_t counter;
        bool inPass;
    };

    std::uint64_t
    word(const Entry &e) const
    {
        std::uint64_t c = e.counter;
        if (c > counterMax_) {
            c = config_.overflow == OverflowPolicy::kSaturate
                    ? counterMax_
                    : (c & counterMax_);
        }
        std::uint64_t w = (c << idBits_) |
                          static_cast<std::uint64_t>(e.req.agent);
        if (config_.enablePriority && e.req.priority)
            w |= 1ULL << (counterBits_ + idBits_);
        return w;
    }

    FcfsConfig config_;
    int idBits_;
    int counterBits_;
    std::uint64_t counterMax_;
    std::uint64_t overflows_ = 0;
    std::vector<Entry> pending_; // in arrival order
};

TEST(FcfsDifferentialTest, IncrementOnLoseMatchesCounterOracle)
{
    struct Variant
    {
        const char *label;
        int bits;
        OverflowPolicy overflow;
        bool priority;
        PriorityCounting counting;
    };
    const Variant variants[] = {
        {"default width", 0, OverflowPolicy::kSaturate, false,
         PriorityCounting::kMatchedIncrement},
        {"bits=3,saturate", 3, OverflowPolicy::kSaturate, false,
         PriorityCounting::kMatchedIncrement},
        {"bits=3,wrap", 3, OverflowPolicy::kWrap, false,
         PriorityCounting::kMatchedIncrement},
        {"matched priority", 0, OverflowPolicy::kSaturate, true,
         PriorityCounting::kMatchedIncrement},
        {"matched priority,bits=3,wrap", 3, OverflowPolicy::kWrap, true,
         PriorityCounting::kMatchedIncrement},
        {"matched priority,bits=3,saturate", 3, OverflowPolicy::kSaturate,
         true, PriorityCounting::kMatchedIncrement},
        {"always priority,bits=3,wrap", 3, OverflowPolicy::kWrap, true,
         PriorityCounting::kAlwaysIncrement},
    };
    Rng rng(0xC0C0);
    for (const auto &v : variants) {
        for (int n : {3, 10, 63, 64, 65, 130}) {
            FcfsConfig config;
            config.strategy = FcfsStrategy::kIncrementOnLose;
            config.counterBits = v.bits;
            config.overflow = v.overflow;
            config.enablePriority = v.priority;
            config.priorityCounting = v.counting;
            FcfsProtocol protocol(config);
            ProtocolDriver driver(protocol, n);
            CounterOracle oracle(config, n, protocol.counterBits());
            const std::string where =
                std::string(v.label) + ", n " + std::to_string(n);

            std::vector<int> outstanding(static_cast<std::size_t>(n) + 1,
                                         0);
            int pending = 0;
            Tick now = 0;
            auto randomPost = [&] {
                const AgentId a = 1 + static_cast<AgentId>(rng.below(
                                          static_cast<std::uint64_t>(n)));
                if (outstanding[static_cast<std::size_t>(a)] >= 3)
                    return;
                const bool priority = v.priority && rng.below(100) < 25;
                oracle.post(driver.post(a, now, priority));
                ++outstanding[static_cast<std::size_t>(a)];
                ++pending;
            };
            auto arbitrate = [&](bool late_posts) {
                oracle.beginPass();
                const AgentId got = driver.arbitrateAndServe(now, [&] {
                    // Posted mid-pass: they must not observe this pass.
                    for (int k = 0; late_posts && k < 3; ++k)
                        randomPost();
                });
                const Request want = oracle.resolve();
                ASSERT_EQ(got, want.agent) << where << " now " << now;
                ASSERT_EQ(driver.served().back().seq, want.seq)
                    << where << " now " << now;
                --outstanding[static_cast<std::size_t>(got)];
                --pending;
            };
            for (int step = 0; step < 1200; ++step) {
                ++now;
                const int posts = static_cast<int>(rng.below(4));
                for (int k = 0; k < posts; ++k)
                    randomPost();
                if (pending > 0 && rng.below(100) < 60)
                    arbitrate(rng.below(100) < 30);
                if (HasFatalFailure())
                    return;
            }
            EXPECT_EQ(protocol.overflowEvents(), oracle.overflows())
                << where << " (mid-run)";
            while (pending > 0) {
                ++now;
                arbitrate(false);
                if (HasFatalFailure())
                    return;
            }
            EXPECT_EQ(protocol.overflowEvents(), oracle.overflows())
                << where;
            if (v.bits == 3 && n >= 10) {
                // The narrow width is really exercised.
                EXPECT_GT(oracle.overflows(), 0u) << where;
            }
        }
    }
}

} // namespace
} // namespace busarb
