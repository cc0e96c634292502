/**
 * @file
 * Bookkeeping for posted-but-unserved requests, shared by the protocol
 * implementations.
 *
 * Each entry models one outstanding request together with one word of
 * per-request protocol state, its *stamp*: the value of a global event
 * count when the request arrived. A waiting-time counter is then the
 * difference between the count now and the stamp, so advancing every
 * waiting request's counter is one increment of the global count, not
 * a walk over the entries (FCFS Section 3.2, the hybrid). The ticket
 * baseline stores its ticket there.
 *
 * Storage is shaped for word-at-a-time arbitration:
 *  - the oldest pending request of each agent lives in a flat slot
 *    array indexed by agent (`slot_[agent]`), so a per-pass loop over
 *    competitors reads one array, never a node per request;
 *  - three packed agent masks mirror the queues exactly: the request
 *    mask (agent has a pending request), the priority mask (agent has a
 *    pending priority request) and the multi mask (agent has two or
 *    more). A protocol freezes its competitor set by copying mask
 *    words, and finds a winner with a leading-zero count over them.
 * Closed workloads keep at most one outstanding request per agent and
 * never leave the slot array; deeper per-agent FIFOs spill newer
 * requests to a per-agent overflow deque.
 */

#ifndef BUSARB_CORE_PENDING_REQUESTS_HH
#define BUSARB_CORE_PENDING_REQUESTS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "bus/request.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace busarb {

/**
 * A packed set of agent identities: bit (id & 63) of word id / 64.
 * Sized for identities 0..N, so N = 64 agents take two words.
 */
using AgentMask = std::vector<std::uint64_t>;

/** @return True if `agent` is in `mask`. */
inline bool
maskHas(const AgentMask &mask, AgentId agent)
{
    const auto bit = static_cast<std::size_t>(agent);
    return ((mask[bit >> 6] >> (bit & 63)) & 1) != 0;
}

/** Add `agent` to `mask`. */
inline void
maskSet(AgentMask &mask, AgentId agent)
{
    const auto bit = static_cast<std::size_t>(agent);
    mask[bit >> 6] |= 1ULL << (bit & 63);
}

/** Remove `agent` from `mask`. */
inline void
maskClear(AgentMask &mask, AgentId agent)
{
    const auto bit = static_cast<std::size_t>(agent);
    mask[bit >> 6] &= ~(1ULL << (bit & 63));
}

/** @return The highest identity in `mask`, or kNoAgent if it is empty. */
inline AgentId
highestAgent(const AgentMask &mask)
{
    for (std::size_t w = mask.size(); w-- > 0;) {
        if (mask[w] != 0) {
            return static_cast<AgentId>(w * 64 + 63 -
                                        std::countl_zero(mask[w]));
        }
    }
    return kNoAgent;
}

/**
 * @param mask Agent set.
 * @param limit Exclusive identity bound.
 * @return The highest identity in `mask` below `limit`, or kNoAgent.
 */
inline AgentId
highestAgentBelow(const AgentMask &mask, AgentId limit)
{
    if (limit <= 0)
        return kNoAgent;
    const auto bound = static_cast<std::size_t>(limit);
    std::size_t w = std::min((bound - 1) >> 6, mask.size() - 1);
    std::uint64_t bits = mask[w];
    if (bound < (w + 1) * 64)
        bits &= (1ULL << (bound - w * 64)) - 1ULL;
    while (true) {
        if (bits != 0) {
            return static_cast<AgentId>(w * 64 + 63 -
                                        std::countl_zero(bits));
        }
        if (w == 0)
            return kNoAgent;
        bits = mask[--w];
    }
}

/**
 * Visit every identity in `mask`, ascending.
 *
 * @param fn Callable taking (AgentId).
 */
template <typename Fn>
void
forEachAgentIn(const AgentMask &mask, Fn &&fn)
{
    for (std::size_t w = 0; w < mask.size(); ++w) {
        std::uint64_t bits = mask[w];
        while (bits != 0) {
            fn(static_cast<AgentId>(w * 64 + std::countr_zero(bits)));
            bits &= bits - 1;
        }
    }
}

/** A pending request plus its protocol-side dynamic state. */
struct PendingEntry
{
    Request req;

    /**
     * Protocol-defined arrival stamp (see the file comment): the event
     * count a waiting-time counter is measured from, or a ticket.
     */
    std::uint64_t stamp = 0;
};

/**
 * Per-agent FIFO queues of pending requests.
 *
 * Requests of one agent are served oldest-first; across agents the
 * protocol decides.
 */
class PendingRequests
{
  public:
    /** Clear and size for `num_agents` agents (identities 1..N). */
    void reset(int num_agents);

    /**
     * Append a new request for its agent.
     *
     * @param req The request.
     * @param stamp Its protocol-defined stamp.
     */
    void add(const Request &req, std::uint64_t stamp = 0);

    /** @return True if no requests are pending at all. */
    bool empty() const { return total_ == 0; }

    /** @return Total pending requests. */
    std::size_t size() const { return total_; }

    /** @return True if `agent` has at least one pending request. */
    bool
    hasAgent(AgentId agent) const
    {
        BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                      "agent id out of range: ", agent);
        return maskHas(mask_, agent);
    }

    /** @return Number of pending requests of `agent`. */
    std::size_t
    numOfAgent(AgentId agent) const
    {
        if (!hasAgent(agent))
            return 0;
        return 1 + overflow_[static_cast<std::size_t>(agent)].size();
    }

    /** @return Number of pending priority requests of `agent`. */
    std::size_t
    numPriorityOfAgent(AgentId agent) const
    {
        BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                      "agent id out of range: ", agent);
        return priorityCount_[static_cast<std::size_t>(agent)];
    }

    /** @return Oldest pending entry of `agent` (must exist). */
    PendingEntry &oldest(AgentId agent);
    const PendingEntry &oldest(AgentId agent) const;

    /**
     * @param agent Agent with a pending request of class `priority`.
     * @param priority Request class to look for.
     * @return The agent's oldest pending entry of that class.
     */
    PendingEntry &oldestOfClass(AgentId agent, bool priority);

    /**
     * Remove and return the oldest pending request of `agent`.
     *
     * @param agent Agent whose request was served.
     * @return The removed request.
     */
    Request popOldest(AgentId agent);

    /**
     * Find a pending entry by its request sequence number.
     *
     * @param agent Owning agent.
     * @param seq Request sequence number.
     * @return Pointer to the entry, or nullptr if not pending.
     */
    PendingEntry *findBySeq(AgentId agent, std::uint64_t seq);

    /**
     * Remove the entry with the given sequence number.
     *
     * @param agent Owning agent.
     * @param seq Request sequence number; must be pending.
     * @return The removed request.
     */
    Request popBySeq(AgentId agent, std::uint64_t seq);

    /**
     * Visit every pending entry (all agents, oldest to newest per agent).
     *
     * @param fn Callable taking (const PendingEntry &).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachAgentIn(mask_, [&](AgentId agent) {
            const auto a = static_cast<std::size_t>(agent);
            fn(slot_[a]);
            for (const auto &entry : overflow_[a])
                fn(entry);
        });
    }

    /**
     * Visit the oldest pending entry of each agent in `agents`: one pass
     * over the slot array, in ascending id order.
     *
     * @param agents Agents that all have a pending request.
     * @param fn Callable taking (const PendingEntry &).
     */
    template <typename Fn>
    void
    forEachOldestIn(const AgentMask &agents, Fn &&fn) const
    {
        forEachAgentIn(agents, [&](AgentId agent) {
            fn(slot_[static_cast<std::size_t>(agent)]);
        });
    }

    /**
     * Visit every pending entry of one agent, oldest first.
     *
     * @param agent Agent whose entries to visit.
     * @param fn Callable taking (const PendingEntry &).
     */
    template <typename Fn>
    void
    forEachOfAgent(AgentId agent, Fn &&fn) const
    {
        if (!hasAgent(agent))
            return;
        const auto a = static_cast<std::size_t>(agent);
        fn(slot_[a]);
        for (const auto &entry : overflow_[a])
            fn(entry);
    }

    /** @return Agents with at least one pending request. */
    const AgentMask &requestMask() const { return mask_; }

    /** @return Agents with at least one pending priority request. */
    const AgentMask &priorityMask() const { return priorityMask_; }

    /** @return Agents with two or more pending requests. */
    const AgentMask &multiMask() const { return multiMask_; }

    /** @return Number of agents the container was reset for. */
    int numAgents() const { return static_cast<int>(slot_.size()) - 1; }

  private:
    /** Bookkeeping common to both pop paths, after `req` left. */
    void removed(const Request &req);

    /** Oldest pending entry per agent (valid iff the mask bit is set). */
    std::vector<PendingEntry> slot_; // index by agent id
    /** Second-and-later pending entries per agent, oldest first. */
    std::vector<std::deque<PendingEntry>> overflow_; // index by agent id
    /** Pending priority requests per agent. */
    std::vector<std::uint32_t> priorityCount_; // index by agent id
    AgentMask mask_;
    AgentMask priorityMask_;
    AgentMask multiMask_;
    std::size_t total_ = 0;
};

} // namespace busarb

#endif // BUSARB_CORE_PENDING_REQUESTS_HH
