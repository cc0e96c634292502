/**
 * @file
 * Unit tests for the two assured-access baseline protocols (Section 2.2).
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/aap_batch.hh"
#include "baseline/aap_futurebus.hh"
#include "bus/contention.hh"
#include "random/rng.hh"
#include "support/protocol_driver.hh"

namespace busarb {
namespace {

using test::ProtocolDriver;

// ------------------------------------------------------------- AAP-1

TEST(BatchAapTest, BatchServedInDescendingIdentityOrder)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(3, 0);
    driver.post(7, 0);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 7);
    EXPECT_EQ(driver.arbitrateAndServe(2), 5);
    EXPECT_EQ(driver.arbitrateAndServe(3), 3);
    EXPECT_EQ(protocol.batchesFormed(), 1u);
}

TEST(BatchAapTest, MidBatchArrivalWaitsForNextBatch)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(2, 0);
    driver.post(4, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 4);
    // Agent 8 arrives while the batch {2} is still in progress: even
    // with the highest identity it must wait for the batch to drain.
    driver.post(8, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 2);
    EXPECT_EQ(driver.arbitrateAndServe(4), 8);
    EXPECT_EQ(protocol.batchesFormed(), 2u);
}

TEST(BatchAapTest, HighIdentityAlwaysFirstInItsBatch)
{
    // The unfairness the paper measures: agent 8 re-requests during
    // each batch and is served first in every batch, while agent 1
    // waits behind it every time.
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(1, 0);
    driver.post(8, 0);
    std::vector<AgentId> order;
    for (int round = 0; round < 6; ++round) {
        const AgentId winner = driver.arbitrateAndServe(round * 10 + 1);
        order.push_back(winner);
        driver.post(winner, round * 10 + 2); // immediate re-request
    }
    EXPECT_EQ(order,
              (std::vector<AgentId>{8, 1, 8, 1, 8, 1}));
}

TEST(BatchAapTest, NewBatchFormsWhenLastMemberStartsService)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(2, 0);
    // Waiting request posted mid-batch.
    driver.post(3, 1);
    // Batch {2} drains; at its tenure start the new batch {3} forms.
    EXPECT_EQ(driver.arbitrateAndServe(2), 2);
    EXPECT_TRUE(protocol.wantsPass());
    EXPECT_EQ(driver.arbitrateAndServe(3), 3);
}

TEST(BatchAapTest, EmptySystemIdles)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    EXPECT_EQ(driver.arbitrateAndServe(0), kNoAgent);
    EXPECT_FALSE(protocol.wantsPass());
    EXPECT_EQ(protocol.batchesFormed(), 0u);
}

/**
 * Oracle for AAP-1, kept as the Section 2.2 description reads: an
 * explicit list of batch members; a request arriving while the request
 * line is low forms a batch of every waiting non-priority request, one
 * arriving in the same instant joins it, later ones wait for the batch
 * to drain. Priority requests compete in every arbitration under the
 * priority line (Section 2.4).
 */
class BatchOracle
{
  public:
    explicit BatchOracle(int n) : idBits_(linesForAgents(n)) {}

    void
    post(const Request &req)
    {
        pending_.push_back(req);
        if (req.priority)
            return;
        if (batch_.empty())
            form(req.issued);
        else if (req.issued == formedAt_)
            batch_.push_back(req.seq);
    }

    /** @return The request that wins a pass over the current state. */
    Request
    choose() const
    {
        const Request *best = nullptr;
        std::uint64_t best_word = 0;
        for (const auto &r : pending_) {
            std::uint64_t word = 0;
            if (r.priority)
                word = (1ULL << idBits_) | static_cast<std::uint64_t>(r.agent);
            else if (inBatch(r.seq))
                word = static_cast<std::uint64_t>(r.agent);
            if (word > best_word) {
                best = &r;
                best_word = word;
            }
        }
        return best != nullptr ? *best : Request{};
    }

    /** The winner `won` starts its tenure at `now`. */
    void
    serve(const Request &won, Tick now)
    {
        pending_.erase(std::find_if(
            pending_.begin(), pending_.end(),
            [&](const Request &r) { return r.seq == won.seq; }));
        if (won.priority)
            return;
        batch_.erase(std::find(batch_.begin(), batch_.end(), won.seq));
        if (batch_.empty())
            form(now);
    }

    std::uint64_t batches() const { return batches_; }

  private:
    bool
    inBatch(std::uint64_t seq) const
    {
        return std::find(batch_.begin(), batch_.end(), seq) != batch_.end();
    }

    void
    form(Tick now)
    {
        for (const auto &r : pending_) {
            if (!r.priority)
                batch_.push_back(r.seq);
        }
        if (!batch_.empty()) {
            ++batches_;
            formedAt_ = now;
        }
    }

    int idBits_;
    std::vector<Request> pending_; // arrival order
    std::vector<std::uint64_t> batch_;
    Tick formedAt_ = -1;
    std::uint64_t batches_ = 0;
};

class BatchAapOracleTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(BatchAapOracleTest, MatchesBatchOracle)
{
    // Queued requests (up to three per agent), several arrivals per
    // tick so requests join a batch in the instant it forms, requests
    // posted while a pass is open, and (with the parameter) priority
    // requests jumping the batch.
    const bool priority = GetParam();
    Rng rng(priority ? 0xAA11 : 0xAA10);
    for (int n : {5, 63, 64, 65, 130}) {
        BatchAapProtocol protocol(priority);
        ProtocolDriver driver(protocol, n);
        BatchOracle oracle(n);
        const std::string where = "n " + std::to_string(n);
        std::vector<int> outstanding(static_cast<std::size_t>(n) + 1, 0);
        int pending = 0;
        Tick now = 0;
        auto randomPost = [&](std::vector<Request> *late) {
            const AgentId a = 1 + static_cast<AgentId>(
                                      rng.below(static_cast<std::uint64_t>(n)));
            if (outstanding[static_cast<std::size_t>(a)] >= 3)
                return;
            const Request req =
                driver.post(a, now, priority && rng.below(100) < 20);
            if (late != nullptr)
                late->push_back(req);
            else
                oracle.post(req);
            ++outstanding[static_cast<std::size_t>(a)];
            ++pending;
        };
        auto arbitrate = [&](bool late_posts) {
            const Request want = oracle.choose();
            std::vector<Request> late;
            const AgentId got = driver.arbitrateAndServe(now, [&] {
                for (int k = 0; late_posts && k < 3; ++k)
                    randomPost(&late);
            });
            for (const auto &req : late)
                oracle.post(req);
            ASSERT_EQ(got, want.agent) << where << " now " << now;
            ASSERT_EQ(driver.served().back().seq, want.seq)
                << where << " now " << now;
            oracle.serve(want, now);
            --outstanding[static_cast<std::size_t>(got)];
            --pending;
        };
        for (int step = 0; step < 1500; ++step) {
            if (rng.below(100) < 70)
                ++now; // otherwise more arrivals in the same instant
            const int posts = static_cast<int>(rng.below(4));
            for (int k = 0; k < posts; ++k)
                randomPost(nullptr);
            if (pending > 0 && rng.below(100) < 60)
                arbitrate(rng.below(100) < 30);
            if (HasFatalFailure())
                return;
        }
        while (pending > 0) {
            ++now;
            arbitrate(false);
            if (HasFatalFailure())
                return;
        }
        EXPECT_EQ(protocol.batchesFormed(), oracle.batches()) << where;
        EXPECT_FALSE(protocol.wantsPass()) << where;
    }
}

INSTANTIATE_TEST_SUITE_P(PriorityOffAndOn, BatchAapOracleTest,
                         ::testing::Bool());

// ------------------------------------------------------------- AAP-2

TEST(FuturebusAapTest, ServedAgentIsInhibitedUntilRelease)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    EXPECT_TRUE(protocol.isInhibited(5));
    // Re-request: needs a fairness release (one retry pass).
    driver.post(5, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 5);
    EXPECT_EQ(driver.retries(), 1);
    EXPECT_EQ(protocol.fairnessReleases(), 1u);
}

TEST(FuturebusAapTest, UnservedAgentJoinsTheBatch)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(4, 0);
    driver.post(6, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 6);
    // Agent 8 arrives mid-batch, has not been served in this batch:
    // it competes immediately and, having the highest identity, wins.
    driver.post(8, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 8);
    EXPECT_EQ(driver.arbitrateAndServe(4), 4);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
}

TEST(FuturebusAapTest, NoAgentServedTwicePerBatch)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(3, 0);
    driver.post(2, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 3);
    driver.post(3, 2); // 3 again, but it is inhibited
    EXPECT_EQ(driver.arbitrateAndServe(3), 2);
    // Batch over (everyone inhibited): release, then 3 is served.
    EXPECT_EQ(driver.arbitrateAndServe(4), 3);
    EXPECT_EQ(protocol.fairnessReleases(), 1u);
}

TEST(FuturebusAapTest, ReleaseClearsAllInhibitBits)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(1, 0);
    driver.post(2, 0);
    driver.arbitrateAndServe(1); // 2
    driver.arbitrateAndServe(2); // 1
    EXPECT_TRUE(protocol.isInhibited(1));
    EXPECT_TRUE(protocol.isInhibited(2));
    driver.post(1, 3);
    driver.arbitrateAndServe(4); // release + serve 1
    EXPECT_FALSE(protocol.isInhibited(2));
    EXPECT_FALSE(protocol.isInhibited(3));
}

TEST(FuturebusAapTest, EmptySystemIdlesWithoutRelease)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    EXPECT_EQ(driver.arbitrateAndServe(0), kNoAgent);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
}

TEST(AapDeathTest, PriorityRequestsRejectedWhenDisabled)
{
    BatchAapProtocol batch;
    ProtocolDriver d1(batch, 4);
    EXPECT_EXIT(d1.post(1, 0, true), ::testing::ExitedWithCode(1),
                "priority is disabled");
    FuturebusAapProtocol futurebus;
    ProtocolDriver d2(futurebus, 4);
    EXPECT_EXIT(d2.post(1, 0, true), ::testing::ExitedWithCode(1),
                "priority is disabled");
}

// ----------------------------------------- priority integration (§2.4)

TEST(BatchAapPriorityTest, PriorityJumpsTheBatch)
{
    BatchAapProtocol protocol(/*enable_priority=*/true);
    ProtocolDriver driver(protocol, 8);
    driver.post(2, 0);
    driver.post(4, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 4);
    // A priority request from the lowest identity arrives mid-batch:
    // it ignores batching and outranks the remaining member.
    driver.post(1, 2, /*priority=*/true);
    EXPECT_EQ(driver.arbitrateAndServe(3), 1);
    EXPECT_EQ(driver.arbitrateAndServe(4), 2);
}

TEST(BatchAapPriorityTest, PriorityAmongPriorityIsIdentityOrder)
{
    BatchAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(3, 0, true);
    driver.post(6, 0, true);
    driver.post(8, 0, false);
    EXPECT_EQ(driver.arbitrateAndServe(1), 6);
    EXPECT_EQ(driver.arbitrateAndServe(2), 3);
    EXPECT_EQ(driver.arbitrateAndServe(3), 8);
}

TEST(BatchAapPriorityTest, PriorityServiceDoesNotDisturbTheBatch)
{
    BatchAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    driver.post(3, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    driver.post(7, 2, true); // priority, then the batch resumes
    EXPECT_EQ(driver.arbitrateAndServe(3), 7);
    EXPECT_EQ(driver.arbitrateAndServe(4), 3);
    EXPECT_EQ(protocol.batchesFormed(), 1u);
}

TEST(FuturebusAapPriorityTest, PriorityIgnoresInhibition)
{
    FuturebusAapProtocol protocol(/*enable_priority=*/true);
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    EXPECT_TRUE(protocol.isInhibited(5));
    // Agent 5 is inhibited for normal traffic but its priority request
    // competes immediately, with no fairness release.
    driver.post(5, 2, true);
    EXPECT_EQ(driver.arbitrateAndServe(3), 5);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
    // Priority service does not inhibit (nor un-inhibit) the agent.
    EXPECT_TRUE(protocol.isInhibited(5));
}

TEST(FuturebusAapPriorityTest, PriorityBeatsEveryBatchMember)
{
    FuturebusAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(8, 0, false);
    driver.post(2, 0, true);
    EXPECT_EQ(driver.arbitrateAndServe(1), 2);
    EXPECT_EQ(driver.arbitrateAndServe(2), 8);
}

TEST(FuturebusAapPriorityTest, PlainOldestAlsoDrivesItsIdentityWord)
{
    // Agent 2 presents its oldest request, a plain one, under its
    // identity 00010 and also drives its priority word 10010; agent 3
    // drives 10011. The plain word must drop out, which takes one
    // settle round; the two priority words alone settle in none.
    FuturebusAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 10);
    driver.post(2, 0, false);
    driver.post(2, 0, true);
    driver.post(3, 0, true);
    protocol.beginPass(0);
    EXPECT_EQ(protocol.settleRoundsForPass(), 1);
    EXPECT_EQ(protocol.completePass(0).winner.agent, 3);

    // With its priority request oldest, agent 2 drives only that word.
    FuturebusAapProtocol priority_first(true);
    ProtocolDriver other(priority_first, 10);
    other.post(2, 0, true);
    other.post(2, 0, false);
    other.post(3, 0, true);
    priority_first.beginPass(0);
    EXPECT_EQ(priority_first.settleRoundsForPass(), 0);
}

} // namespace
} // namespace busarb
