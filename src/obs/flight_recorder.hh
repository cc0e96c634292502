/**
 * @file
 * Bounded flight-recorder tracing.
 *
 * A FlightRecorder is a TraceSink that retains only the last M events
 * in a fixed-size ring, so it can run for the whole length of a
 * production-scale simulation at O(M) memory. Its purpose is post-hoc
 * diagnosis: when something goes wrong (most importantly, when a
 * ProtocolChecker contract violation panics the simulator), the tail
 * of bus activity leading up to the failure is dumped to stderr via
 * the thread-local panic hook (sim/logging.hh), turning an opaque
 * abort into a readable incident timeline.
 */

#ifndef BUSARB_OBS_FLIGHT_RECORDER_HH
#define BUSARB_OBS_FLIGHT_RECORDER_HH

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "bus/trace.hh"

namespace busarb {

/**
 * Ring-buffer sink retaining the last M bus events.
 */
class FlightRecorder final : public TraceSink
{
  public:
    /**
     * @param capacity Events retained (M); must be >= 1.
     */
    explicit FlightRecorder(std::size_t capacity);

    /** Retain `event`, evicting the oldest once the ring is full. */
    void consume(const TraceEvent &event) override;

    /** @return Events currently retained (<= capacity). */
    std::size_t size() const;

    /** @return Total events seen, including evicted ones. */
    std::uint64_t totalEvents() const { return total_; }

    /** @return The retained tail, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Print the retained tail, oldest first, one event per line.
     *
     * @param os Destination stream.
     */
    void dump(std::ostream &os) const;

  private:
    std::vector<TraceEvent> ring_;
    std::size_t capacity_;
    std::size_t next_ = 0; // slot the next event lands in
    std::uint64_t total_ = 0;
};

/**
 * RAII installer of a panic hook that dumps a flight recorder.
 *
 * While alive, any BUSARB_PANIC / BUSARB_ASSERT failure on this thread
 * (a ProtocolChecker contract violation, a deadlocked simulation, ...)
 * prints the recorder's tail to stderr before aborting. The hook is
 * thread-local, so concurrent scenario runs in a JobPool each dump
 * their own recorder.
 */
class ScopedFlightRecorderDump
{
  public:
    /** @param recorder The recorder to dump; must outlive this guard. */
    explicit ScopedFlightRecorderDump(const FlightRecorder &recorder);
    ~ScopedFlightRecorderDump();

    ScopedFlightRecorderDump(const ScopedFlightRecorderDump &) = delete;
    ScopedFlightRecorderDump &
    operator=(const ScopedFlightRecorderDump &) = delete;
};

} // namespace busarb

#endif // BUSARB_OBS_FLIGHT_RECORDER_HH
