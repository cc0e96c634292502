#include "core/pending_requests.hh"

#include <utility>

#include "sim/logging.hh"

namespace busarb {

void
PendingRequests::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    slot_.assign(static_cast<std::size_t>(num_agents) + 1, {});
    overflow_.assign(slot_.size(), {});
    priorityCount_.assign(slot_.size(), 0);
    mask_.assign((slot_.size() + 63) / 64, 0);
    priorityMask_ = mask_;
    multiMask_ = mask_;
    total_ = 0;
}

void
PendingRequests::add(const Request &req, std::uint64_t stamp)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents(),
                  "agent id out of range: ", req.agent);
    const auto a = static_cast<std::size_t>(req.agent);
    ++total_;
    if (req.priority && priorityCount_[a]++ == 0)
        maskSet(priorityMask_, req.agent);
    if (!hasAgent(req.agent)) {
        slot_[a] = PendingEntry{req, stamp};
        maskSet(mask_, req.agent);
        return;
    }
    overflow_[a].push_back(PendingEntry{req, stamp});
    maskSet(multiMask_, req.agent);
}

PendingEntry &
PendingRequests::oldest(AgentId agent)
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    return slot_[static_cast<std::size_t>(agent)];
}

const PendingEntry &
PendingRequests::oldest(AgentId agent) const
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    return slot_[static_cast<std::size_t>(agent)];
}

PendingEntry &
PendingRequests::oldestOfClass(AgentId agent, bool priority)
{
    PendingEntry &front = oldest(agent);
    if (front.req.priority == priority)
        return front;
    for (auto &entry : overflow_[static_cast<std::size_t>(agent)]) {
        if (entry.req.priority == priority)
            return entry;
    }
    BUSARB_PANIC("agent ", agent, " has no pending ",
                 priority ? "priority" : "non-priority", " request");
}

PendingEntry *
PendingRequests::findBySeq(AgentId agent, std::uint64_t seq)
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                  "agent id out of range: ", agent);
    if (!hasAgent(agent))
        return nullptr;
    const auto a = static_cast<std::size_t>(agent);
    if (slot_[a].req.seq == seq)
        return &slot_[a];
    for (auto &entry : overflow_[a]) {
        if (entry.req.seq == seq)
            return &entry;
    }
    return nullptr;
}

void
PendingRequests::removed(const Request &req)
{
    const auto a = static_cast<std::size_t>(req.agent);
    if (overflow_[a].empty())
        maskClear(multiMask_, req.agent);
    if (req.priority && --priorityCount_[a] == 0)
        maskClear(priorityMask_, req.agent);
    BUSARB_ASSERT(total_ > 0, "pending count underflow");
    --total_;
}

Request
PendingRequests::popBySeq(AgentId agent, std::uint64_t seq)
{
    const auto a = static_cast<std::size_t>(agent);
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    if (slot_[a].req.seq == seq)
        return popOldest(agent);
    auto &dq = overflow_[a];
    for (auto it = dq.begin(); it != dq.end(); ++it) {
        if (it->req.seq == seq) {
            const Request req = it->req;
            dq.erase(it);
            removed(req);
            return req;
        }
    }
    BUSARB_PANIC("request seq ", seq, " not pending for agent ", agent);
}

Request
PendingRequests::popOldest(AgentId agent)
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    const auto a = static_cast<std::size_t>(agent);
    const Request req = slot_[a].req;
    auto &dq = overflow_[a];
    if (dq.empty()) {
        maskClear(mask_, agent);
    } else {
        slot_[a] = std::move(dq.front());
        dq.pop_front();
    }
    removed(req);
    return req;
}

} // namespace busarb
