/**
 * @file
 * Tests for the bus event stream and the timeline printer.
 */

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "baseline/aap_futurebus.hh"
#include "baseline/fixed_priority.hh"
#include "bus/bus.hh"
#include "bus/trace.hh"
#include "sim/event_queue.hh"

namespace busarb {
namespace {

/** Sink counting each event kind. */
struct CountingSink : TraceSink
{
    int posted = 0;
    int passStarts = 0;
    int winners = 0;
    int retries = 0;
    int tenureStarts = 0;
    int tenureEnds = 0;

    void
    consume(const TraceEvent &ev) override
    {
        switch (ev.kind) {
          case TraceEventKind::kRequestPosted:
            ++posted;
            break;
          case TraceEventKind::kPassStarted:
            ++passStarts;
            break;
          case TraceEventKind::kPassResolved:
            EXPECT_LE(ev.passStart, ev.tick);
            if (ev.agent != kNoAgent)
                ++winners;
            if (ev.retry)
                ++retries;
            break;
          case TraceEventKind::kTenureStarted:
            ++tenureStarts;
            break;
          case TraceEventKind::kTenureEnded:
            ++tenureEnds;
            break;
          case TraceEventKind::kCounterUpdate:
            ADD_FAILURE() << "the bus emits no counter updates";
            break;
        }
    }
};

TEST(TraceTest, EventsBalance)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4, {});
    CountingSink sink;
    bus.addTraceSink(&sink);
    queue.schedule(0, [&] {
        bus.postRequest(1);
        bus.postRequest(2);
    });
    queue.schedule(3 * kTicksPerUnit, [&] { bus.postRequest(3); });
    queue.run();
    EXPECT_EQ(sink.posted, 3);
    EXPECT_EQ(sink.winners, 3);
    EXPECT_EQ(sink.tenureStarts, 3);
    EXPECT_EQ(sink.tenureEnds, 3);
    EXPECT_EQ(sink.passStarts, sink.winners + sink.retries);
    EXPECT_EQ(sink.retries, 0);
}

TEST(TraceTest, RetriesAreVisible)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FuturebusAapProtocol>(), 4, {});
    CountingSink sink;
    bus.addTraceSink(&sink);
    queue.schedule(0, [&] { bus.postRequest(1); });
    queue.schedule(2 * kTicksPerUnit, [&] { bus.postRequest(1); });
    queue.run();
    EXPECT_EQ(sink.retries, 1); // the fairness release
    EXPECT_EQ(sink.winners, 2);
}

TEST(TraceTest, EverySinkSeesEveryEvent)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4, {});
    CountingSink first;
    CountingSink second;
    bus.addTraceSink(&first);
    bus.addTraceSink(nullptr); // ignored
    bus.addTraceSink(&second);
    queue.schedule(0, [&] { bus.postRequest(2); });
    queue.run();
    EXPECT_EQ(first.posted, 1);
    EXPECT_EQ(second.posted, 1);
    EXPECT_EQ(first.tenureEnds, 1);
    EXPECT_EQ(second.tenureEnds, 1);
}

/**
 * @return The printed timeline of a fixed-priority bus serving one
 *         request from each of agents 1..requests.
 */
std::string
printedTimeline(std::uint64_t max_events, int requests,
                bool priority = false)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(priority), 4,
            {});
    std::ostringstream os;
    TracePrinter printer(os, max_events);
    bus.addTraceSink(&printer);
    queue.schedule(0, [&] {
        for (AgentId a = 1; a <= requests; ++a)
            bus.postRequest(a, priority);
    });
    queue.run();
    return os.str();
}

std::size_t
lineCount(const std::string &text)
{
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
}

TEST(TracePrinterTest, ProducesReadableTimeline)
{
    const std::string out = printedTimeline(0, 1);
    // One request served: post, pass start, resolve, tenure start/end.
    EXPECT_EQ(lineCount(out), 5u);
    EXPECT_NE(out.find("request agent=1 seq=1"), std::string::npos);
    EXPECT_NE(out.find("pass_start"), std::string::npos);
    EXPECT_NE(out.find("pass_resolve winner=1 seq=1"), std::string::npos);
    EXPECT_NE(out.find("tenure_start agent=1 seq=1"), std::string::npos);
    EXPECT_NE(out.find("tenure_end agent=1 seq=1"), std::string::npos);
    EXPECT_EQ(out.find("truncated"), std::string::npos);
}

TEST(TracePrinterTest, PrintsExactlyTheBudgetThenOneNote)
{
    // Three requests produce well over three events.
    const std::string out = printedTimeline(3, 3);
    ASSERT_EQ(lineCount(out), 4u) << out;
    // Three event lines, then the note as the fourth and last line.
    const std::size_t note =
        out.find("... (trace truncated after 3 events)");
    ASSERT_NE(note, std::string::npos) << out;
    EXPECT_EQ(lineCount(out.substr(0, note)), 3u);
    EXPECT_EQ(out.substr(note), "... (trace truncated after 3 events)\n");
}

TEST(TracePrinterTest, RunOfExactlyTheBudgetIsNotTruncated)
{
    // One served request is exactly five events.
    const std::string out = printedTimeline(5, 1);
    EXPECT_EQ(lineCount(out), 5u) << out;
    EXPECT_EQ(out.find("truncated"), std::string::npos) << out;
    EXPECT_NE(out.find("tenure_end agent=1 seq=1"), std::string::npos);
}

TEST(TracePrinterTest, PriorityRequestsAreAnnotated)
{
    const std::string out = printedTimeline(0, 1, /*priority=*/true);
    EXPECT_NE(out.find("request agent=1 seq=1 priority"),
              std::string::npos);
}

} // namespace
} // namespace busarb
