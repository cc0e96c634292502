/**
 * @file
 * The parallel contention arbiter: wired-OR maximum finding (Section 2.1).
 *
 * Every competing agent applies its k-bit arbitration number to k wired-OR
 * lines and monitors them. When an agent sees a 1 on a line it is driving
 * with 0, it removes the lower-order bits of its number; if the line drops
 * back to 0 it re-applies them. The lines settle to the maximum competing
 * number. Taub proved the settle time is at most k/2 end-to-end bus
 * propagation delays [Taub84].
 *
 * settle() is an explicit round-by-round simulation of the
 * remove/re-apply process, reporting how many propagation rounds were
 * needed. It validates the mechanism and times passes under settle
 * timing (SettleCounter). The logical outcome, the maximum word, never
 * needs it: the protocols resolve a pass from frozen agent masks
 * (core/pending_requests.hh), where the static identity is the bit
 * position and the maximum is a leading-zero count.
 */

#ifndef BUSARB_BUS_CONTENTION_HH
#define BUSARB_BUS_CONTENTION_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace busarb {

/** A competitor in one arbitration: an agent and its composite word. */
struct Competitor
{
    AgentId agent = kNoAgent;

    /**
     * The value driven onto the arbitration lines. For the plain parallel
     * contention arbiter this is the static identity; the RR and FCFS
     * protocols prepend dynamic high-order fields (Section 3).
     */
    std::uint64_t word = 0;
};

/** Outcome of the bit-level settle process. */
struct SettleResult
{
    /** The value the lines carry at steady state (0 if nobody competed). */
    std::uint64_t settledWord = 0;

    /** The winning agent (kNoAgent if nobody competed). */
    AgentId winner = kNoAgent;

    /**
     * Number of propagation rounds until no agent changed its applied
     * word. One round models one end-to-end bus propagation delay in
     * which every agent re-evaluates the lines simultaneously.
     */
    int rounds = 0;
};

/**
 * Bit-level model of the parallel contention arbiter.
 */
class ContentionArbiter
{
  public:
    /**
     * @param num_lines Number of arbitration lines k; words must fit in
     *        k bits. Must be in [1, 63].
     */
    explicit ContentionArbiter(int num_lines);

    /** @return Number of arbitration lines. */
    int numLines() const { return numLines_; }

    /**
     * Run the remove/re-apply settle process to a fixed point.
     *
     * @param competitors The agents applying words this arbitration.
     * @return Settled word, winner, and propagation-round count.
     */
    SettleResult settle(const std::vector<Competitor> &competitors) const;

  private:
    int numLines_;

    // Per-competitor applied words, reused across settle() calls so the
    // hot arbitration path performs no per-pass allocation.
    mutable std::vector<std::uint64_t> appliedScratch_;

    /** @return The word agent applies when the lines carry `lines`. */
    std::uint64_t appliedWord(std::uint64_t identity,
                              std::uint64_t lines) const;
};

/**
 * Number of arbitration lines needed for N agents: ceil(log2(N + 1)),
 * since identity 0 is reserved (Section 2.1).
 *
 * @param num_agents Number of agents N >= 1.
 * @return Line count k.
 */
int linesForAgents(int num_agents);

/**
 * Settle-round counting for one protocol's passes: an arbiter sized at
 * reset plus a competitor list that keeps its capacity, so a pass's
 * settle timing allocates nothing once the list has grown to the
 * largest contest.
 */
class SettleCounter
{
  public:
    /** Size for `num_lines` arbitration lines and forget competitors. */
    void
    reset(int num_lines)
    {
        arbiter_ = ContentionArbiter(num_lines);
        competitors_.clear();
    }

    /** Start a new contest. */
    void clear() { competitors_.clear(); }

    /** Add a competitor applying `word`. */
    void
    add(AgentId agent, std::uint64_t word)
    {
        competitors_.push_back(Competitor{agent, word});
    }

    /**
     * @return Propagation rounds the wired-OR lines need to settle over
     *         the competitors added since clear() (0 if none).
     */
    int rounds() const { return arbiter_.settle(competitors_).rounds; }

  private:
    ContentionArbiter arbiter_{1};
    std::vector<Competitor> competitors_;
};

} // namespace busarb

#endif // BUSARB_BUS_CONTENTION_HH
