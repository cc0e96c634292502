#include "baseline/ticket_fcfs.hh"

#include "sim/logging.hh"

namespace busarb {

TicketFcfsProtocol::TicketFcfsProtocol(const TicketFcfsConfig &config)
    : config_(config)
{
    BUSARB_ASSERT(config_.ticketBits >= 0 && config_.ticketBits <= 62,
                  "ticket width out of range: ", config_.ticketBits);
}

void
TicketFcfsProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    nextTicket_ = 0;
    pending_.reset(num_agents);
    frozen_ = pending_.requestMask();
    passOpen_ = false;
}

void
TicketFcfsProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(!req.priority,
                  "the ticket arbiter models non-priority traffic only");
    std::uint64_t ticket = nextTicket_++;
    if (config_.ticketBits > 0)
        ticket &= (1ULL << config_.ticketBits) - 1ULL;
    // The entry's stamp holds the ticket.
    pending_.add(req, ticket);
}

bool
TicketFcfsProtocol::wantsPass() const
{
    return !pending_.empty();
}

bool
TicketFcfsProtocol::ticketBefore(std::uint64_t a, std::uint64_t b) const
{
    if (config_.ticketBits == 0)
        return a < b;
    // Circular comparison: a precedes b when (b - a) mod 2^w is in the
    // lower half of the ring. Correct while the outstanding window is
    // smaller than 2^(w-1) tickets.
    const std::uint64_t mask = (1ULL << config_.ticketBits) - 1ULL;
    const std::uint64_t diff = (b - a) & mask;
    return diff != 0 && diff < (1ULL << (config_.ticketBits - 1));
}

void
TicketFcfsProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    frozen_ = pending_.requestMask();
}

PassResult
TicketFcfsProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    // Each agent presents its oldest ticket. A bounded ring makes
    // ticketBefore non-transitive once too many tickets are out, so
    // the winner depends on the visiting order: ascending identity.
    const PendingEntry *best = nullptr;
    pending_.forEachOldestIn(frozen_, [&](const PendingEntry &e) {
        if (best == nullptr || ticketBefore(e.stamp, best->stamp))
            best = &e;
    });
    if (best == nullptr) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    return PassResult::makeWinner(best->req);
}

void
TicketFcfsProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

std::string
TicketFcfsProtocol::name() const
{
    return "Ticket FCFS [ShAh81]";
}

} // namespace busarb
