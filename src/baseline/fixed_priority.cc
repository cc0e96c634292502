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
    frozen_.clear();
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
    frozen_.clear();
    pending_.forEachAgentOldest([&](const PendingEntry &e) {
        std::uint64_t word = static_cast<std::uint64_t>(e.req.agent);
        if (enablePriority_ && e.req.priority)
            word |= 1ULL << idBits_;
        frozen_.push_back(FrozenCompetitor{e.req.agent, word, e.req.seq});
    });
    if (enablePriority_) {
        // An agent with both classes pending presents its priority
        // request; rebuild per-agent words accordingly.
        for (auto &c : frozen_) {
            const PendingEntry *best = nullptr;
            std::uint64_t best_word = 0;
            pending_.forEachOfAgent(c.agent, [&](const PendingEntry &e) {
                std::uint64_t w = static_cast<std::uint64_t>(e.req.agent);
                if (e.req.priority)
                    w |= 1ULL << idBits_;
                if (best == nullptr || w > best_word) {
                    best = &e;
                    best_word = w;
                }
            });
            c.word = best_word;
            c.seq = best->req.seq;
        }
    }
}

PassResult
FixedPriorityProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (frozen_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
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
FixedPriorityProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
FixedPriorityProtocol::settleRoundsForPass() const
{
    settle_.clear();
    for (const auto &c : frozen_)
        settle_.add(c.agent, c.word);
    return settle_.rounds();
}

std::string
FixedPriorityProtocol::name() const
{
    return "Fixed priority (parallel contention)";
}

} // namespace busarb
