#include "baseline/aap_batch.hh"

#include "sim/logging.hh"

namespace busarb {

BatchAapProtocol::BatchAapProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
BatchAapProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    batchCount_.assign(static_cast<std::size_t>(num_agents) + 1, 0);
    batchMask_ = pending_.requestMask();
    batchSize_ = 0;
    frozenBatch_ = batchMask_;
    frozenPriority_ = batchMask_;
    passOpen_ = false;
    batchesFormed_ = 0;
    priorityPending_ = 0;
    settle_.reset(idBits_ + (enablePriority_ ? 1 : 0));
}

void
BatchAapProtocol::joinBatch(AgentId agent, std::uint32_t members)
{
    const auto a = static_cast<std::size_t>(agent);
    batchCount_[a] += members;
    maskSet(batchMask_, agent);
    batchSize_ += members;
}

void
BatchAapProtocol::formNewBatch(Tick now)
{
    BUSARB_ASSERT(batchSize_ == 0, "forming a batch while one is active");
    forEachAgentIn(pending_.requestMask(), [&](AgentId a) {
        // Priority requests ignore the batching protocol entirely.
        const auto members = static_cast<std::uint32_t>(
            pending_.numOfAgent(a) - pending_.numPriorityOfAgent(a));
        if (members > 0)
            joinBatch(a, members);
    });
    if (batchSize_ > 0) {
        ++batchesFormed_;
        batchFormedAt_ = now;
    }
}

void
BatchAapProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
    if (req.priority) {
        // Priority requests compete in every arbitration (Section 2.4).
        ++priorityPending_;
        return;
    }
    if (batchSize_ == 0) {
        // Request line reads 0: the request asserts it and forms a new
        // batch.
        formNewBatch(req.issued);
    } else if (req.issued == batchFormedAt_) {
        // The batch formed at this very instant; the line assertion has
        // not propagated yet, so this request joins it too.
        joinBatch(req.agent, 1);
    }
    // Otherwise: a batch is in progress; the request waits for its end.
}

bool
BatchAapProtocol::wantsPass() const
{
    // Batch members assert the request line (and the batch is non-empty
    // whenever a non-priority request is pending, since a new batch
    // forms the moment the old one drains); priority requests assert it
    // unconditionally.
    return batchSize_ > 0 || priorityPending_ > 0;
}

void
BatchAapProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    // Batch members apply their identity; an agent with a priority
    // request also applies its identity under the priority line (most
    // significant bit), presenting its oldest priority request.
    frozenBatch_ = batchMask_;
    if (enablePriority_)
        frozenPriority_ = pending_.priorityMask();
}

PassResult
BatchAapProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    AgentId winner = highestAgent(frozenPriority_);
    const bool priority = winner != kNoAgent;
    if (!priority)
        winner = highestAgent(frozenBatch_);
    if (winner == kNoAgent) {
        BUSARB_ASSERT(batchSize_ == 0,
                      "batch members vanished without service");
        return PassResult::makeIdle();
    }
    return PassResult::makeWinner(
        pending_.oldestOfClass(winner, priority).req);
}

void
BatchAapProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
    if (req.priority) {
        BUSARB_ASSERT(priorityPending_ > 0, "priority count underflow");
        --priorityPending_;
        return;
    }
    // The agent releases the request line at the start of its tenure.
    const auto a = static_cast<std::size_t>(req.agent);
    BUSARB_ASSERT(batchCount_[a] > 0, "served request was not in batch");
    if (--batchCount_[a] == 0)
        maskClear(batchMask_, req.agent);
    if (--batchSize_ == 0) {
        // The request line drops to 0: every waiting request asserts it
        // and the next batch forms.
        formNewBatch(now);
    }
}

int
BatchAapProtocol::settleRoundsForPass() const
{
    // Every applied word, rebuilt from the frozen masks: an agent with
    // both a priority request and a batch member drives both.
    settle_.clear();
    forEachAgentIn(frozenPriority_, [&](AgentId a) {
        settle_.add(a, (1ULL << idBits_) | static_cast<std::uint64_t>(a));
    });
    forEachAgentIn(frozenBatch_, [&](AgentId a) {
        settle_.add(a, static_cast<std::uint64_t>(a));
    });
    return settle_.rounds();
}

std::string
BatchAapProtocol::name() const
{
    return "AAP-1 (Fastbus/NuBus/Multibus II batching)";
}

} // namespace busarb
