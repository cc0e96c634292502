#include "baseline/aap_futurebus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

FuturebusAapProtocol::FuturebusAapProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
FuturebusAapProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    inhibited_ = pending_.requestMask();
    frozenPriority_ = inhibited_;
    frozenPlain_ = inhibited_;
    passOpen_ = false;
    releases_ = 0;
    settle_.reset(idBits_ + (enablePriority_ ? 1 : 0));
}

bool
FuturebusAapProtocol::isInhibited(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    return maskHas(inhibited_, agent);
}

void
FuturebusAapProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
}

bool
FuturebusAapProtocol::wantsPass() const
{
    // Even when every requester is inhibited an arbitration cycle must
    // run: that empty cycle is the fairness release.
    return !pending_.empty();
}

void
FuturebusAapProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    // Priority requests ignore the inhibit protocol and assert the
    // priority line (most significant bit); every other requester
    // competes with its identity unless it is inhibited.
    frozenPriority_ = pending_.priorityMask();
    const AgentMask &requests = pending_.requestMask();
    for (std::size_t w = 0; w < frozenPlain_.size(); ++w)
        frozenPlain_[w] = requests[w] & ~inhibited_[w];
}

PassResult
FuturebusAapProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    AgentId winner = highestAgent(frozenPriority_);
    const bool priority = winner != kNoAgent;
    if (!priority)
        winner = highestAgent(frozenPlain_);
    if (winner == kNoAgent) {
        if (pending_.empty())
            return PassResult::makeIdle();
        // "The fairness release operation is an arbitration cycle in
        // which no agents assert the request line": all inhibit marks
        // clear and the next arbitration starts a new batch.
        std::fill(inhibited_.begin(), inhibited_.end(), 0);
        ++releases_;
        return PassResult::makeRetry();
    }
    // Without a priority competitor every plain competitor's oldest
    // request is non-priority, so that is the one it presented.
    return PassResult::makeWinner(
        pending_.oldestOfClass(winner, priority).req);
}

void
FuturebusAapProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

void
FuturebusAapProtocol::tenureEnded(const Request &req, Tick now)
{
    (void)now;
    // "At the completion of its bus tenure, the agent marks itself as
    // inhibited." Priority service bypasses the fairness protocol and
    // leaves the inhibit state untouched.
    if (!req.priority)
        maskSet(inhibited_, req.agent);
}

int
FuturebusAapProtocol::settleRoundsForPass() const
{
    // Every applied word, rebuilt from the frozen masks. An agent
    // presents its oldest request under the identity word, so one whose
    // oldest request is a priority request drives only the priority
    // word, while one whose oldest is plain drives both words when it
    // also holds a priority request.
    settle_.clear();
    forEachAgentIn(frozenPriority_, [&](AgentId a) {
        settle_.add(a, (1ULL << idBits_) | static_cast<std::uint64_t>(a));
    });
    forEachAgentIn(frozenPlain_, [&](AgentId a) {
        if (!pending_.oldest(a).req.priority)
            settle_.add(a, static_cast<std::uint64_t>(a));
    });
    return settle_.rounds();
}

std::string
FuturebusAapProtocol::name() const
{
    return "AAP-2 (Futurebus inhibit / fairness release)";
}

} // namespace busarb
