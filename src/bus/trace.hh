/**
 * @file
 * The bus event stream.
 *
 * One of the paper's arguments for the parallel contention arbiter
 * (Section 1) is that "the state of the arbiter is available and can be
 * monitored on the bus. This is useful for software initialization of
 * the system and for diagnosing system failures." This module is that
 * monitor for the simulation. The bus describes every externally
 * visible event — request-line assertions, arbitration pass starts and
 * resolutions, bus tenures — as one TraceEvent and hands it to each
 * attached TraceSink. The binary trace writer, the flight recorder, the
 * fairness auditor and the text timeline all consume this one stream,
 * and a decoded binary trace replays it offline through the same entry
 * point, so a run can round-trip bus -> bytes -> events -> Perfetto
 * JSON without loss.
 */

#ifndef BUSARB_BUS_TRACE_HH
#define BUSARB_BUS_TRACE_HH

#include <cstdint>
#include <iosfwd>

#include "bus/request.hh"
#include "sim/types.hh"

namespace busarb {

/** Kind of one bus event. Values are the on-disk record tags. */
enum class TraceEventKind : std::uint8_t {
    kRequestPosted = 1, ///< an agent asserted the request line
    kPassStarted = 2,   ///< an arbitration pass began (competitors frozen)
    kPassResolved = 3,  ///< an arbitration pass resolved
    kTenureStarted = 4, ///< a bus tenure (transfer) began
    kTenureEnded = 5,   ///< a bus tenure completed
    kCounterUpdate = 6, ///< a named counter took a new value
};

/** @return A short lowercase name for `kind` (e.g. "request"). */
const char *traceEventKindName(TraceEventKind kind);

/**
 * One bus event. Fields beyond `kind` and `tick` are meaningful only
 * for the kinds noted on each member.
 */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::kRequestPosted;

    /** Simulation tick of the event. */
    Tick tick = 0;

    /** Requesting/winning agent; kNoAgent when not applicable. */
    AgentId agent = kNoAgent;

    /** Request sequence number; 0 when not applicable. */
    std::uint64_t seq = 0;

    /** kRequestPosted: the request was urgent. */
    bool priority = false;

    /** kPassResolved: the protocol asked for an immediate retry. */
    bool retry = false;

    /**
     * kPassResolved: tick at which this pass began, so every
     * resolution record is self-contained (a flight recorder may have
     * evicted the matching kPassStarted event).
     */
    Tick passStart = 0;

    /** kCounterUpdate: id into the chunk's counter-name table. */
    std::uint64_t counterId = 0;

    /** kCounterUpdate: the counter's value. */
    std::uint64_t counterValue = 0;

    bool operator==(const TraceEvent &) const = default;
};

/** @return The event for `req` asserting the request line. */
inline TraceEvent
requestEvent(const Request &req)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::kRequestPosted;
    ev.tick = req.issued;
    ev.agent = req.agent;
    ev.seq = req.seq;
    ev.priority = req.priority;
    return ev;
}

/** @return The event for an arbitration pass beginning at `now`. */
inline TraceEvent
passStartEvent(Tick now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::kPassStarted;
    ev.tick = now;
    return ev;
}

/**
 * @param now Resolution tick.
 * @param pass_start Tick at which the pass began.
 * @param winner The winning request; invalid() for an empty pass
 *        (fairness release / round-robin wrap).
 * @param retry True when the protocol asked for an immediate retry.
 * @return The event for an arbitration pass resolving.
 */
inline TraceEvent
passResolveEvent(Tick now, Tick pass_start, const Request &winner,
                 bool retry)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::kPassResolved;
    ev.tick = now;
    ev.passStart = pass_start;
    ev.retry = retry;
    if (winner.valid()) {
        ev.agent = winner.agent;
        ev.seq = winner.seq;
    }
    return ev;
}

/** @return The event for `req`'s bus tenure beginning at `now`. */
inline TraceEvent
tenureStartEvent(const Request &req, Tick now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::kTenureStarted;
    ev.tick = now;
    ev.agent = req.agent;
    ev.seq = req.seq;
    return ev;
}

/** @return The event for `req`'s transfer completing at `now`. */
inline TraceEvent
tenureEndEvent(const Request &req, Tick now)
{
    TraceEvent ev = tenureStartEvent(req, now);
    ev.kind = TraceEventKind::kTenureEnded;
    return ev;
}

/**
 * Render one event as a single human-readable line (no newline).
 *
 * @param event The event.
 * @param os Destination stream.
 */
void printTraceEvent(const TraceEvent &event, std::ostream &os);

/** Receives the bus event stream, one event at a time. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Take one event; events arrive in non-decreasing tick order. */
    virtual void consume(const TraceEvent &event) = 0;
};

/**
 * Prints the stream as a timeline, one printTraceEvent line per event,
 * up to an event budget.
 */
class TracePrinter final : public TraceSink
{
  public:
    /**
     * @param os Output stream (must outlive the printer).
     * @param max_events Print at most this many events, then one
     *        truncation note when the next event arrives (guards
     *        against accidentally tracing a full-length run); 0 means
     *        unlimited.
     */
    explicit TracePrinter(std::ostream &os, std::uint64_t max_events = 0);

    void consume(const TraceEvent &event) override;

  private:
    std::ostream &os_;
    std::uint64_t maxEvents_;
    std::uint64_t seen_ = 0;
};

} // namespace busarb

#endif // BUSARB_BUS_TRACE_HH
