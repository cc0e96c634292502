/**
 * @file
 * Flight-recorder tests: ring-buffer retention, snapshot ordering, and
 * the panic-hook dump that turns a contract violation into a readable
 * bus timeline.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/flight_recorder.hh"
#include "sim/logging.hh"

namespace busarb {
namespace {

Request
makeRequest(AgentId agent, Tick issued, std::uint64_t seq)
{
    Request req;
    req.agent = agent;
    req.issued = issued;
    req.seq = seq;
    return req;
}

TEST(FlightRecorder, RetainsAllEventsBelowCapacity)
{
    FlightRecorder rec(8);
    rec.consume(passStartEvent(100));
    rec.consume(passStartEvent(200));
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.totalEvents(), 2u);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].tick, 100);
    EXPECT_EQ(events[1].tick, 200);
}

TEST(FlightRecorder, EvictsOldestBeyondCapacity)
{
    FlightRecorder rec(3);
    for (Tick t = 1; t <= 10; ++t)
        rec.consume(passStartEvent(t * 100));
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.totalEvents(), 10u);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    // Oldest first: ticks 800, 900, 1000 survive.
    EXPECT_EQ(events[0].tick, 800);
    EXPECT_EQ(events[1].tick, 900);
    EXPECT_EQ(events[2].tick, 1000);
}

TEST(FlightRecorder, CapacityOneKeepsOnlyTheLastEvent)
{
    FlightRecorder rec(1);
    rec.consume(requestEvent(makeRequest(1, 100, 1)));
    rec.consume(tenureEndEvent(makeRequest(2, 100, 2), 900));
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(rec.snapshot()[0].kind, TraceEventKind::kTenureEnded);
    EXPECT_EQ(rec.snapshot()[0].agent, 2);
}

TEST(FlightRecorder, RecordsBusCallbackFields)
{
    FlightRecorder rec(8);
    rec.consume(requestEvent(makeRequest(3, 500, 11)));
    rec.consume(passResolveEvent(1500, 1000, makeRequest(3, 500, 11), false));
    rec.consume(passResolveEvent(2500, 2000, Request{}, true));
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, TraceEventKind::kRequestPosted);
    EXPECT_EQ(events[0].agent, 3);
    EXPECT_EQ(events[0].seq, 11u);
    EXPECT_EQ(events[1].kind, TraceEventKind::kPassResolved);
    EXPECT_EQ(events[1].passStart, 1000);
    EXPECT_EQ(events[1].agent, 3);
    EXPECT_TRUE(events[2].retry);
    EXPECT_EQ(events[2].agent, kNoAgent);
}

TEST(FlightRecorder, DumpPrintsTailWithTotals)
{
    FlightRecorder rec(2);
    rec.consume(passStartEvent(100));
    rec.consume(passStartEvent(200));
    rec.consume(tenureStartEvent(makeRequest(4, 100, 9), 300));
    std::ostringstream os;
    rec.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("flight recorder: last 2 of 3 bus events"),
              std::string::npos);
    EXPECT_NE(text.find("tenure_start agent=4 seq=9"),
              std::string::npos);
    // Only one of the two pass_start events survived the eviction.
    std::size_t pass_starts = 0;
    for (std::size_t at = text.find("pass_start");
         at != std::string::npos; at = text.find("pass_start", at + 1))
        ++pass_starts;
    EXPECT_EQ(pass_starts, 1u);
}

TEST(FlightRecorder, DumpAfterWraparoundIsChronological)
{
    // Fill a 3-slot ring past capacity twice over; the dump must print
    // exactly the surviving tail, oldest first, with no seam at the
    // ring's physical wrap point.
    FlightRecorder rec(3);
    for (std::uint64_t seq = 1; seq <= 8; ++seq)
        rec.consume(requestEvent(makeRequest(1, static_cast<Tick>(seq * 10),
                                             seq)));
    std::ostringstream os;
    rec.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("last 3 of 8 bus events"), std::string::npos);
    const std::size_t s6 = text.find("seq=6");
    const std::size_t s7 = text.find("seq=7");
    const std::size_t s8 = text.find("seq=8");
    ASSERT_NE(s6, std::string::npos);
    ASSERT_NE(s7, std::string::npos);
    ASSERT_NE(s8, std::string::npos);
    EXPECT_LT(s6, s7);
    EXPECT_LT(s7, s8);
    // The evicted head must be gone entirely.
    EXPECT_EQ(text.find("seq=5"), std::string::npos);
}

TEST(FlightRecorderDeathTest, PanicDumpTailOrderingAfterWraparound)
{
    // The panic-hook dump goes through the same snapshot path; verify
    // the tail it prints is in event order even after the ring wrapped.
    FlightRecorder rec(2);
    rec.consume(passStartEvent(100));
    rec.consume(requestEvent(makeRequest(1, 200, 1)));
    rec.consume(tenureStartEvent(makeRequest(1, 200, 1), 300));
    ScopedFlightRecorderDump guard(rec);
    EXPECT_DEATH(BUSARB_ASSERT(false, "wrapped"),
                 "wrapped(.|\n)*last 2 of 3 bus events"
                 "(.|\n)*request agent=1 seq=1"
                 "(.|\n)*tenure_start agent=1 seq=1");
}

TEST(FlightRecorderDeathTest, ZeroCapacityPanics)
{
    EXPECT_DEATH(FlightRecorder rec(0), "capacity >= 1");
}

TEST(FlightRecorderDeathTest, PanicDumpsRecorderTail)
{
    // Satellite contract: a BUSARB_ASSERT failure (e.g. a
    // ProtocolChecker contract violation) while a
    // ScopedFlightRecorderDump guard is alive prints the recorder tail
    // to stderr before aborting.
    FlightRecorder rec(4);
    rec.consume(requestEvent(makeRequest(2, 1000, 5)));
    rec.consume(passStartEvent(1000));
    ScopedFlightRecorderDump guard(rec);
    EXPECT_DEATH(BUSARB_ASSERT(false, "checker tripped"),
                 "checker tripped(.|\n)*flight recorder: last 2 of 2 "
                 "bus events(.|\n)*request agent=2 seq=5");
}

TEST(FlightRecorderDeathTest, HookUninstalledAfterGuardScope)
{
    FlightRecorder rec(4);
    rec.consume(passStartEvent(100));
    {
        ScopedFlightRecorderDump guard(rec);
    }
    // Guard gone: the panic message appears without any recorder dump.
    EXPECT_DEATH(
        {
            BUSARB_PANIC("plain panic");
        },
        "plain panic");
}

} // namespace
} // namespace busarb
