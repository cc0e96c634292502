#include "core/weighted_round_robin.hh"

#include "sim/logging.hh"

namespace busarb {

WeightedRoundRobinProtocol::WeightedRoundRobinProtocol(
    const WrrConfig &config)
    : config_(config)
{
    for (int w : config_.weights) {
        if (w < 1)
            BUSARB_FATAL("WRR weights must be >= 1, got ", w);
    }
}

void
WeightedRoundRobinProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    if (config_.weights.size() > 1 &&
        config_.weights.size() != static_cast<std::size_t>(num_agents)) {
        BUSARB_FATAL("WRR weight vector has ", config_.weights.size(),
                     " entries for ", num_agents,
                     " agents (use one weight to broadcast)");
    }
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    // As in RR implementation 1: before any arbitration every identity
    // is "below" the recorded winner, and nobody holds burst credits.
    recordedWinner_ = num_agents + 1;
    credits_ = 0;
    pending_.reset(num_agents);
    frozen_.clear();
    passOpen_ = false;
    settle_.reset(arbitrationLineCount());
}

int
WeightedRoundRobinProtocol::weightOf(AgentId agent) const
{
    if (config_.weights.empty())
        return 1;
    if (config_.weights.size() == 1)
        return config_.weights.front();
    return config_.weights[static_cast<std::size_t>(agent - 1)];
}

void
WeightedRoundRobinProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority)
        BUSARB_FATAL("WRR does not support priority-class requests");
    pending_.add(req);
}

bool
WeightedRoundRobinProtocol::wantsPass() const
{
    return !pending_.empty();
}

std::uint64_t
WeightedRoundRobinProtocol::wordFor(AgentId agent) const
{
    const auto id = static_cast<std::uint64_t>(agent);
    const std::uint64_t rr_bit = (agent < recordedWinner_) ? 1 : 0;
    const std::uint64_t claim =
        (agent == recordedWinner_ && credits_ > 0) ? 1 : 0;
    return (claim << (idBits_ + 1)) | (rr_bit << idBits_) | id;
}

void
WeightedRoundRobinProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    frozen_.clear();
    forEachAgentIn(pending_.requestMask(), [&](AgentId a) {
        // All of one agent's requests share a word, so the oldest is
        // presented (PendingRequests keeps arrival order).
        frozen_.push_back(
            FrozenCompetitor{a, wordFor(a), pending_.oldest(a).req.seq});
    });
}

PassResult
WeightedRoundRobinProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    if (frozen_.empty())
        return PassResult::makeIdle();

    const FrozenCompetitor *best = &frozen_.front();
    for (const auto &c : frozen_) {
        BUSARB_ASSERT(c.word != best->word || c.agent == best->agent,
                      "duplicate arbitration word");
        if (c.word > best->word)
            best = &c;
    }

    // Every agent updates the winner identity and the burst credit
    // count; both are functions of broadcast information, so the state
    // stays consistent across agents without extra lines.
    if (best->agent == recordedWinner_ && credits_ > 0) {
        --credits_;
    } else {
        recordedWinner_ = best->agent;
        credits_ = weightOf(best->agent) - 1;
    }

    PendingEntry *entry = pending_.findBySeq(best->agent, best->seq);
    BUSARB_ASSERT(entry != nullptr, "winning request vanished");
    return PassResult::makeWinner(entry->req);
}

void
WeightedRoundRobinProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
WeightedRoundRobinProtocol::settleRoundsForPass() const
{
    settle_.clear();
    for (const auto &c : frozen_)
        settle_.add(c.agent, c.word);
    return settle_.rounds();
}

std::string
WeightedRoundRobinProtocol::name() const
{
    std::string weights;
    if (config_.weights.empty()) {
        weights = "1";
    } else {
        for (std::size_t i = 0; i < config_.weights.size(); ++i) {
            if (i > 0)
                weights += "/";
            weights += std::to_string(config_.weights[i]);
        }
    }
    return "WRR (weights " + weights + ")";
}

} // namespace busarb
