#include "core/hybrid.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

HybridProtocol::HybridProtocol(const HybridConfig &config) : config_(config)
{
    BUSARB_ASSERT(config_.counterBits >= 0 && config_.counterBits <= 32,
                  "counter width out of range: ", config_.counterBits);
}

void
HybridProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    counterBits_ =
        (config_.counterBits > 0) ? config_.counterBits : idBits_;
    counterMax_ = (1ULL << counterBits_) - 1ULL;
    recordedWinner_ = num_agents + 1;
    passesDone_ = 0;
    pending_.reset(num_agents);
    frozen_ = pending_.requestMask();
    passOpen_ = false;
    settle_.reset(counterBits_ + 1 + idBits_);
}

void
HybridProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    BUSARB_ASSERT(!req.priority,
                  "the hybrid protocol does not support priority requests");
    // The counter advances with each arbitration the request observes
    // and loses; a request posted while a pass is open misses that one.
    pending_.add(req, passesDone_ + (passOpen_ ? 1 : 0));
}

bool
HybridProtocol::wantsPass() const
{
    return !pending_.empty();
}

std::uint64_t
HybridProtocol::wordFor(const PendingEntry &e) const
{
    const auto id = static_cast<std::uint64_t>(e.req.agent);
    const std::uint64_t waited = passesDone_ - e.stamp;
    const std::uint64_t counter =
        (waited <= counterMax_) ? waited : counterMax_;
    const std::uint64_t rr_bit =
        (e.req.agent < recordedWinner_) ? 1ULL : 0ULL;
    return (counter << (idBits_ + 1)) | (rr_bit << idBits_) | id;
}

void
HybridProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    frozen_ = pending_.requestMask();
}

PassResult
HybridProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    // One outstanding word per agent; the oldest request has the
    // largest counter, so it is the one the agent presents. Nothing a
    // word depends on moves while the pass is open, and the static
    // identity in the low bits names the winner.
    std::uint64_t best = 0;
    pending_.forEachOldestIn(frozen_, [&](const PendingEntry &e) {
        best = std::max(best, wordFor(e));
    });
    if (best == 0) {
        BUSARB_ASSERT(pending_.empty(),
                      "hybrid pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }

    PendingEntry &winner = pending_.oldest(
        static_cast<AgentId>(best & ((1ULL << idBits_) - 1ULL)));
    recordedWinner_ = winner.req.agent;
    // Every other request that observed this arbitration increments its
    // counter: one step of the pass count. The winner keeps its own.
    ++passesDone_;
    ++winner.stamp;

    return PassResult::makeWinner(winner.req);
}

void
HybridProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
HybridProtocol::settleRoundsForPass() const
{
    settle_.clear();
    pending_.forEachOldestIn(frozen_, [&](const PendingEntry &e) {
        settle_.add(e.req.agent, wordFor(e));
    });
    return settle_.rounds();
}

std::string
HybridProtocol::name() const
{
    return "Hybrid (FCFS with RR tie-break)";
}

} // namespace busarb
