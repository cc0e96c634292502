/**
 * @file
 * The Sharma-Ahuja ticket-based FCFS bus allocation scheme [ShAh81],
 * referenced by the paper as prior FCFS work.
 *
 * Each arriving request takes the next ticket from a conceptual global
 * dispenser; the arbiter grants the bus to the lowest outstanding ticket.
 * With an unbounded dispenser this is exact FCFS in arrival order. The
 * model exposes the ticket-counter width so the wrap-around hazard that
 * makes a hardware dispenser tricky (and motivated the paper's bounded
 * waiting-time counters) can be studied.
 */

#ifndef BUSARB_BASELINE_TICKET_FCFS_HH
#define BUSARB_BASELINE_TICKET_FCFS_HH

#include <cstdint>
#include <string>

#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/** Configuration of the ticket arbiter. */
struct TicketFcfsConfig
{
    /**
     * Ticket counter width in bits; 0 means unbounded (exact FCFS).
     * With w > 0, tickets are issued modulo 2^w and compared in a
     * circular order that is correct while fewer than 2^(w-1) requests
     * are outstanding.
     */
    int ticketBits = 0;
};

/**
 * Ticket-dispenser FCFS arbitration [ShAh81].
 */
class TicketFcfsProtocol : public ArbitrationProtocol
{
  public:
    explicit TicketFcfsProtocol(const TicketFcfsConfig &config = {});

    void reset(int num_agents) override;
    void requestPosted(const Request &req) override;
    bool wantsPass() const override;
    void beginPass(Tick now) override;
    PassResult completePass(Tick now) override;
    void tenureStarted(const Request &req, Tick now) override;
    std::string name() const override;

    /** @return Tickets issued so far. */
    std::uint64_t ticketsIssued() const { return nextTicket_; }

  private:
    TicketFcfsConfig config_;
    int numAgents_ = 0;
    std::uint64_t nextTicket_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;

    /** Agents with a pending request when the open pass began. */
    AgentMask frozen_;

    /** Circular "a is before b" comparison under a bounded counter. */
    bool ticketBefore(std::uint64_t a, std::uint64_t b) const;
};

} // namespace busarb

#endif // BUSARB_BASELINE_TICKET_FCFS_HH
