#include "baseline/central.hh"

#include "sim/logging.hh"

namespace busarb {

// ------------------------------------------------------------ central RR

void
CentralRoundRobinProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    lastServed_ = 0;
    pending_.reset(num_agents);
    passOpen_ = false;
    frozenSeqs_.clear();
    frozenAgents_.clear();
}

void
CentralRoundRobinProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(!req.priority,
                  "central reference arbiters ignore priority classes");
    pending_.add(req);
}

bool
CentralRoundRobinProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
CentralRoundRobinProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    frozenSeqs_.clear();
    frozenAgents_.clear();
    const AgentMask &requests = pending_.requestMask();
    pending_.forEachOldestIn(requests, [&](const PendingEntry &e) {
        frozenAgents_.push_back(e.req.agent);
        frozenSeqs_.push_back(e.req.seq);
    });
}

PassResult
CentralRoundRobinProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (frozenAgents_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    // Scan order after serving j: j-1, ..., 1, N, ..., j. Find the best
    // requester under that cyclic descending order.
    const AgentId pivot = (lastServed_ == 0) ? numAgents_ + 1 : lastServed_;
    AgentId best = kNoAgent;
    std::uint64_t best_seq = 0;
    // Rank: agents below the pivot come first (descending), then the
    // rest (descending).
    auto rank = [&](AgentId a) {
        return (a < pivot) ? (pivot - a) : (numAgents_ + pivot - a);
    };
    for (std::size_t i = 0; i < frozenAgents_.size(); ++i) {
        if (best == kNoAgent ||
            rank(frozenAgents_[i]) < rank(best)) {
            best = frozenAgents_[i];
            best_seq = frozenSeqs_[i];
        }
    }
    lastServed_ = best;
    PendingEntry *winner = pending_.findBySeq(best, best_seq);
    BUSARB_ASSERT(winner != nullptr, "winning request vanished");
    return PassResult::makeWinner(winner->req);
}

void
CentralRoundRobinProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

std::string
CentralRoundRobinProtocol::name() const
{
    return "Central round-robin (reference)";
}

// ---------------------------------------------------------- central FCFS

void
CentralFcfsProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    pending_.reset(num_agents);
    passOpen_ = false;
    frozenSeqs_.clear();
    frozenAgents_.clear();
}

void
CentralFcfsProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(!req.priority,
                  "central reference arbiters ignore priority classes");
    pending_.add(req);
}

bool
CentralFcfsProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
CentralFcfsProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    frozenSeqs_.clear();
    frozenAgents_.clear();
    const AgentMask &requests = pending_.requestMask();
    pending_.forEachOldestIn(requests, [&](const PendingEntry &e) {
        frozenAgents_.push_back(e.req.agent);
        frozenSeqs_.push_back(e.req.seq);
    });
}

PassResult
CentralFcfsProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (frozenAgents_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    // The globally oldest request: smallest issue tick, then smallest
    // sequence number (issue order).
    PendingEntry *best = nullptr;
    for (std::size_t i = 0; i < frozenAgents_.size(); ++i) {
        PendingEntry *e = pending_.findBySeq(frozenAgents_[i],
                                             frozenSeqs_[i]);
        BUSARB_ASSERT(e != nullptr, "frozen request vanished");
        if (best == nullptr || e->req.issued < best->req.issued ||
            (e->req.issued == best->req.issued &&
             e->req.seq < best->req.seq)) {
            best = e;
        }
    }
    return PassResult::makeWinner(best->req);
}

void
CentralFcfsProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

std::string
CentralFcfsProtocol::name() const
{
    return "Central FCFS (reference)";
}

} // namespace busarb
