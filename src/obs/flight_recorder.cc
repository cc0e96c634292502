#include "obs/flight_recorder.hh"

#include <iostream>
#include <ostream>

#include "sim/logging.hh"

namespace busarb {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity)
{
    BUSARB_ASSERT(capacity >= 1, "flight recorder needs capacity >= 1");
    ring_.reserve(capacity);
}

void
FlightRecorder::consume(const TraceEvent &event)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
    } else {
        ring_[next_] = event;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_;
}

std::size_t
FlightRecorder::size() const
{
    return ring_.size();
}

std::vector<TraceEvent>
FlightRecorder::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
        out = ring_;
        return out;
    }
    for (std::size_t i = 0; i < capacity_; ++i)
        out.push_back(ring_[(next_ + i) % capacity_]);
    return out;
}

void
FlightRecorder::dump(std::ostream &os) const
{
    os << "flight recorder: last " << size() << " of " << total_
       << " bus events\n";
    for (const TraceEvent &ev : snapshot()) {
        os << "  ";
        printTraceEvent(ev, os);
        os << "\n";
    }
}

ScopedFlightRecorderDump::ScopedFlightRecorderDump(
    const FlightRecorder &recorder)
{
    setPanicHook([&recorder] { recorder.dump(std::cerr); });
}

ScopedFlightRecorderDump::~ScopedFlightRecorderDump()
{
    setPanicHook(nullptr);
}

} // namespace busarb
