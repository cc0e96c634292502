#include "core/round_robin.hh"

#include "sim/logging.hh"

namespace busarb {

RoundRobinProtocol::RoundRobinProtocol(const RrConfig &config)
    : config_(config)
{
    if (config_.enablePriority &&
        config_.impl != RrImplementation::kPriorityBit) {
        BUSARB_FATAL("priority requests are only supported by RR "
                     "implementation 1 (kPriorityBit); see Section 3.1");
    }
}

void
RoundRobinProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    // Before any arbitration every agent's identity is "below" the
    // recorded winner, so the first arbitration is a plain contest that
    // the highest requesting identity wins.
    recordedWinner_ = num_agents + 1;
    pending_.reset(num_agents);
    frozen_ = pending_.requestMask();
    frozenPriority_ = pending_.priorityMask();
    passOpen_ = false;
    settle_.reset(numLines());
}

int
RoundRobinProtocol::numLines() const
{
    // Static identity bits, plus the RR priority line for implementation 1
    // (implementation 2's low-request line is a control line, not an
    // arbitration line; implementation 3 adds nothing), plus the priority
    // class line when enabled.
    int lines = idBits_;
    if (config_.impl == RrImplementation::kPriorityBit)
        lines += 1;
    if (config_.enablePriority)
        lines += 1;
    return lines;
}

void
RoundRobinProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !config_.enablePriority) {
        BUSARB_FATAL("priority request posted but enablePriority is off");
    }
    pending_.add(req);
}

bool
RoundRobinProtocol::wantsPass() const
{
    return !pending_.empty();
}

AgentId
RoundRobinProtocol::nextInRoundRobinOrder(const AgentMask &set) const
{
    const AgentId low = highestAgentBelow(set, recordedWinner_);
    return low != kNoAgent ? low : highestAgent(set);
}

std::uint64_t
RoundRobinProtocol::wordFor(AgentId agent) const
{
    const auto id = static_cast<std::uint64_t>(agent);
    if (config_.impl != RrImplementation::kPriorityBit) {
        // Gating decides who competes; the word is the static identity.
        return id;
    }
    const bool priority =
        config_.enablePriority && maskHas(frozenPriority_, agent);
    // "Agents may ignore the round-robin protocol for priority requests
    // by always setting the round-robin priority bit."
    const std::uint64_t rr_bit =
        (agent < recordedWinner_ ||
         (priority && !config_.rrWithinPriorityClass))
            ? 1
            : 0;
    std::uint64_t word = (rr_bit << idBits_) | id;
    if (priority)
        word |= 1ULL << (idBits_ + 1);
    return word;
}

void
RoundRobinProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    // Requests posted from now on cannot join this pass. An agent
    // presents its oldest priority request if it has one (the priority
    // line outranks every other bit), otherwise its oldest request.
    frozen_ = pending_.requestMask();
    if (config_.enablePriority)
        frozenPriority_ = pending_.priorityMask();
}

PassResult
RoundRobinProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    // The wired-OR maximum over the frozen words, resolved a field at a
    // time from the most significant: the priority class, then the
    // round-robin bit (implementation 1) or the gating line
    // (implementations 2 and 3), then the static identity.
    AgentId winner = kNoAgent;
    if (config_.impl == RrImplementation::kNoExtraLine) {
        // Only agents below the recorded winner ever compete.
        winner = highestAgentBelow(frozen_, recordedWinner_);
    } else if (config_.enablePriority &&
               highestAgent(frozenPriority_) != kNoAgent) {
        winner = config_.rrWithinPriorityClass
                     ? nextInRoundRobinOrder(frozenPriority_)
                     : highestAgent(frozenPriority_);
    } else {
        winner = nextInRoundRobinOrder(frozen_);
    }

    if (winner == kNoAgent) {
        if (pending_.empty())
            return PassResult::makeIdle();
        BUSARB_ASSERT(config_.impl == RrImplementation::kNoExtraLine,
                      "empty competitor set is only possible in RR "
                      "implementation 3");
        // "A winning identity of zero indicates that no agent participated
        // in the arbitration. In this case, the value N+1 is recorded as
        // the winning value and a new arbitration is started immediately."
        recordedWinner_ = numAgents_ + 1;
        return PassResult::makeRetry();
    }

    // Every agent records the winner's static identity (excluding the
    // round-robin priority bit) at the end of every arbitration.
    recordedWinner_ = winner;

    const bool priority =
        config_.enablePriority && maskHas(frozenPriority_, winner);
    return PassResult::makeWinner(
        pending_.oldestOfClass(winner, priority).req);
}

void
RoundRobinProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
RoundRobinProtocol::settleRoundsForPass() const
{
    // The competitors and their words, rebuilt from the frozen masks.
    AgentId gate = numAgents_ + 1;
    if (config_.impl == RrImplementation::kNoExtraLine ||
        (config_.impl == RrImplementation::kLowRequestLine &&
         highestAgentBelow(frozen_, recordedWinner_) != kNoAgent)) {
        gate = recordedWinner_;
    }
    settle_.clear();
    forEachAgentIn(frozen_, [&](AgentId a) {
        if (a < gate)
            settle_.add(a, wordFor(a));
    });
    return settle_.rounds();
}

std::string
RoundRobinProtocol::name() const
{
    switch (config_.impl) {
      case RrImplementation::kPriorityBit:
        return "RR (impl 1: rr-priority bit)";
      case RrImplementation::kLowRequestLine:
        return "RR (impl 2: low-request line)";
      case RrImplementation::kNoExtraLine:
        return "RR (impl 3: no extra line)";
    }
    return "RR";
}

} // namespace busarb
