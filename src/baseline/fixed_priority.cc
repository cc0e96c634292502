#include "baseline/fixed_priority.hh"

#include "sim/logging.hh"

namespace busarb {

FixedPriorityProtocol::FixedPriorityProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
FixedPriorityProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    frozen_ = pending_.requestMask();
    frozenPriority_ = frozen_;
    passOpen_ = false;
    settle_.reset(idBits_ + (enablePriority_ ? 1 : 0));
}

void
FixedPriorityProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
}

bool
FixedPriorityProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
FixedPriorityProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    // Every requester applies its identity; one with a priority request
    // pending presents that request with the priority line (most
    // significant bit) asserted.
    frozen_ = pending_.requestMask();
    frozenPriority_ = pending_.priorityMask();
}

PassResult
FixedPriorityProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    AgentId winner = highestAgent(frozenPriority_);
    const bool priority = winner != kNoAgent;
    if (!priority)
        winner = highestAgent(frozen_);
    if (winner == kNoAgent) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    return PassResult::makeWinner(
        pending_.oldestOfClass(winner, priority).req);
}

void
FixedPriorityProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
FixedPriorityProtocol::settleRoundsForPass() const
{
    settle_.clear();
    forEachAgentIn(frozen_, [&](AgentId a) {
        std::uint64_t word = static_cast<std::uint64_t>(a);
        if (maskHas(frozenPriority_, a))
            word |= 1ULL << idBits_;
        settle_.add(a, word);
    });
    return settle_.rounds();
}

std::string
FixedPriorityProtocol::name() const
{
    return "Fixed priority (parallel contention)";
}

} // namespace busarb
