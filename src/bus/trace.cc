#include "bus/trace.hh"

#include <iomanip>
#include <ostream>

namespace busarb {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::kRequestPosted:
        return "request";
      case TraceEventKind::kPassStarted:
        return "pass_start";
      case TraceEventKind::kPassResolved:
        return "pass_resolve";
      case TraceEventKind::kTenureStarted:
        return "tenure_start";
      case TraceEventKind::kTenureEnded:
        return "tenure_end";
      case TraceEventKind::kCounterUpdate:
        return "counter";
    }
    return "unknown";
}

void
printTraceEvent(const TraceEvent &event, std::ostream &os)
{
    os << "[" << std::setw(10) << std::fixed << std::setprecision(3)
       << ticksToUnits(event.tick) << "] "
       << traceEventKindName(event.kind);
    switch (event.kind) {
      case TraceEventKind::kRequestPosted:
        os << " agent=" << event.agent << " seq=" << event.seq;
        if (event.priority)
            os << " priority";
        break;
      case TraceEventKind::kPassStarted:
        break;
      case TraceEventKind::kPassResolved:
        if (event.agent != kNoAgent) {
            os << " winner=" << event.agent << " seq=" << event.seq;
        } else {
            os << (event.retry ? " retry" : " idle");
        }
        os << " pass_units="
           << ticksToUnits(event.tick - event.passStart);
        break;
      case TraceEventKind::kTenureStarted:
      case TraceEventKind::kTenureEnded:
        os << " agent=" << event.agent << " seq=" << event.seq;
        break;
      case TraceEventKind::kCounterUpdate:
        os << " id=" << event.counterId << " value="
           << event.counterValue;
        break;
    }
}

TracePrinter::TracePrinter(std::ostream &os, std::uint64_t max_events)
    : os_(os), maxEvents_(max_events)
{
}

void
TracePrinter::consume(const TraceEvent &event)
{
    ++seen_;
    if (maxEvents_ == 0 || seen_ <= maxEvents_) {
        printTraceEvent(event, os_);
        os_ << "\n";
    } else if (seen_ == maxEvents_ + 1) {
        os_ << "... (trace truncated after " << maxEvents_
            << " events)\n";
    }
}

} // namespace busarb
