#include "baseline/aap_futurebus.hh"

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
    inhibited_.assign(static_cast<std::size_t>(num_agents) + 1, false);
    frozen_.clear();
    passOpen_ = false;
    releases_ = 0;
    settle_.reset(idBits_ + (enablePriority_ ? 1 : 0));
}

bool
FuturebusAapProtocol::isInhibited(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    return inhibited_[static_cast<std::size_t>(agent)];
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
    frozen_.clear();
    // Priority requests ignore the inhibit protocol and assert the
    // priority line (most significant bit); an agent presents its oldest
    // priority request.
    forEachAgentIn(pending_.priorityMask(), [&](AgentId a) {
        frozen_.push_back(FrozenCompetitor{
            a, (1ULL << idBits_) | static_cast<std::uint64_t>(a),
            pending_.oldestOfClass(a, true).req.seq});
    });
    pending_.forEachAgentOldest([&](const PendingEntry &e) {
        if (e.req.priority)
            return; // already competing above
        if (inhibited_[static_cast<std::size_t>(e.req.agent)])
            return; // does not assert the request line
        frozen_.push_back(FrozenCompetitor{
            e.req.agent, static_cast<std::uint64_t>(e.req.agent),
            e.req.seq});
    });
}

PassResult
FuturebusAapProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (frozen_.empty()) {
        if (pending_.empty())
            return PassResult::makeIdle();
        // "The fairness release operation is an arbitration cycle in
        // which no agents assert the request line": all inhibit marks
        // clear and the next arbitration starts a new batch.
        for (std::size_t i = 0; i < inhibited_.size(); ++i)
            inhibited_[i] = false;
        ++releases_;
        return PassResult::makeRetry();
    }
    const FrozenCompetitor *best = &frozen_.front();
    for (const auto &c : frozen_) {
        if (c.word > best->word)
            best = &c;
    }
    PendingEntry *winner = pending_.findBySeq(best->agent, best->seq);
    BUSARB_ASSERT(winner != nullptr, "winning request vanished");
    return PassResult::makeWinner(winner->req);
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
        inhibited_[static_cast<std::size_t>(req.agent)] = true;
}

int
FuturebusAapProtocol::settleRoundsForPass() const
{
    settle_.clear();
    for (const auto &c : frozen_)
        settle_.add(c.agent, c.word);
    return settle_.rounds();
}

std::string
FuturebusAapProtocol::name() const
{
    return "AAP-2 (Futurebus inhibit / fairness release)";
}

} // namespace busarb
