/**
 * @file
 * Exporter tests: the latency breakdown computed from a hand-built
 * trace, and structural checks on the Chrome trace-event JSON and CSV
 * outputs.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/binary_trace.hh"
#include "obs/latency.hh"
#include "obs/perfetto.hh"
#include "sim/types.hh"

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

/**
 * Two served requests on a 2-agent bus.
 *
 * Agent 1 (seq 1) requests at t=0 on an idle bus: its whole 0.5-unit
 * arbitration pass is exposed, then a 1-unit transfer. Agent 2 (seq 2)
 * requests at t=0.1u while that pass runs; its own pass starts when the
 * bus frees at 1.5u, so its exposed share is again the full pass.
 */
TraceChunk
buildTwoRequestChunk()
{
    BinaryTraceWriter writer(2, "synthetic");
    const Tick half = kTicksPerUnit / 2;

    writer.consume(requestEvent(makeRequest(1, 0, 1)));
    writer.consume(passStartEvent(0));
    writer.consume(requestEvent(makeRequest(2, kTicksPerUnit / 10, 2)));
    writer.consume(passResolveEvent(half, 0, makeRequest(1, 0, 1), false));
    writer.consume(tenureStartEvent(makeRequest(1, 0, 1), half));
    writer.consume(tenureEndEvent(makeRequest(1, 0, 1), half + kTicksPerUnit));
    const Tick free_at = half + kTicksPerUnit; // 1.5 units
    writer.consume(passStartEvent(free_at));
    writer.consume(passResolveEvent(free_at + half, free_at,
                                    makeRequest(2, kTicksPerUnit / 10, 2),
                                    false));
    writer.consume(tenureStartEvent(makeRequest(2, 0, 2), free_at + half));
    writer.consume(tenureEndEvent(makeRequest(2, 0, 2),
                                  free_at + half + kTicksPerUnit));

    const auto chunks = readTraceChunks(writer.finish());
    return chunks.front();
}

TEST(Latency, BreaksWaitIntoComponents)
{
    const TraceChunk chunk = buildTwoRequestChunk();
    const auto latencies = computeRequestLatencies(chunk);
    ASSERT_EQ(latencies.size(), 2u);
    const Tick half = kTicksPerUnit / 2;

    // First request: no queueing, fully exposed pass, 1-unit service.
    EXPECT_EQ(latencies[0].agent, 1);
    EXPECT_EQ(latencies[0].queue, 0);
    EXPECT_EQ(latencies[0].exposedArb, half);
    EXPECT_EQ(latencies[0].service, kTicksPerUnit);
    EXPECT_EQ(latencies[0].wait(), half + kTicksPerUnit);

    // Second request: issued at 0.1u, granted at 2.0u after a fully
    // exposed 0.5u pass; the remaining 1.4u was queueing.
    EXPECT_EQ(latencies[1].agent, 2);
    EXPECT_EQ(latencies[1].exposedArb, half);
    EXPECT_EQ(latencies[1].queue,
              2 * kTicksPerUnit - kTicksPerUnit / 10 - half);
    EXPECT_EQ(latencies[1].service, kTicksPerUnit);
}

TEST(Latency, SummaryAggregatesInUnits)
{
    const TraceChunk chunk = buildTwoRequestChunk();
    const LatencySummary s =
        summarizeLatencies(computeRequestLatencies(chunk));
    EXPECT_EQ(s.wait.count(), 2u);
    EXPECT_DOUBLE_EQ(s.service.mean(), 1.0);
    EXPECT_DOUBLE_EQ(s.exposedArb.mean(), 0.5);
    EXPECT_DOUBLE_EQ(s.wait.max(), 0.5 + 1.4 + 1.0);
    // Histogram-backed quantiles: monotone in p and within one bin
    // (0.25 units) of the observed maximum at the top.
    EXPECT_LE(s.waitQuantile(0.50), s.waitQuantile(0.95));
    EXPECT_LE(s.waitQuantile(0.95), s.waitQuantile(0.99));
    EXPECT_NEAR(s.waitQuantile(0.99), s.wait.max(), 0.25);
}

TEST(Latency, InFlightRequestsAreOmitted)
{
    BinaryTraceWriter writer(1, "p");
    writer.consume(requestEvent(makeRequest(1, 0, 1)));
    writer.consume(passStartEvent(0));
    writer.consume(passResolveEvent(100, 0, makeRequest(1, 0, 1), false));
    writer.consume(tenureStartEvent(makeRequest(1, 0, 1), 100));
    // Trace ends before the tenure completes.
    const auto chunks = readTraceChunks(writer.finish());
    EXPECT_TRUE(computeRequestLatencies(chunks.front()).empty());
}

TEST(Latency, BreakdownTableAndCsvRender)
{
    const std::vector<TraceChunk> chunks = {buildTwoRequestChunk()};

    std::ostringstream table;
    printLatencyBreakdown(chunks, table);
    EXPECT_NE(table.str().find("synthetic"), std::string::npos);
    EXPECT_NE(table.str().find("exp. arb"), std::string::npos);
    EXPECT_NE(table.str().find("W p50"), std::string::npos);
    EXPECT_NE(table.str().find("W p95"), std::string::npos);
    EXPECT_NE(table.str().find("W p99"), std::string::npos);

    std::ostringstream csv;
    writeLatencyCsv(chunks, csv);
    const std::string text = csv.str();
    EXPECT_NE(
        text.find(
            "chunk,protocol,agent,seq,issued,queue,exposed_arb,service,"
            "wait"),
        std::string::npos);
    // Header plus one row per served request.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Perfetto, EmitsMetadataEventsAndCounters)
{
    BinaryTraceWriter writer(2, "proto \"quoted\"");
    const std::uint64_t id = writer.defineCounter("bus.ops");
    writer.consume(requestEvent(makeRequest(1, 100, 1)));
    writer.consume(passStartEvent(100));
    writer.consume(passResolveEvent(200, 100, makeRequest(1, 100, 1), false));
    writer.consume(tenureStartEvent(makeRequest(1, 100, 1), 200));
    writer.counterUpdate(id, 300, 17);
    writer.consume(tenureEndEvent(makeRequest(1, 100, 1), 400));
    const auto chunks = readTraceChunks(writer.finish());

    std::ostringstream os;
    writePerfettoJson(chunks, os);
    const std::string json = os.str();

    EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // Process/track metadata.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("proto \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"arbiter\""), std::string::npos);
    EXPECT_NE(json.find("\"agent 2\""), std::string::npos);
    // One instant, one pass slice, one tenure slice, one counter.
    EXPECT_NE(json.find("\"name\": \"request\", \"ph\": \"i\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"pass\", \"ph\": \"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"tenure\", \"ph\": \"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"wait_ticks\": 300"), std::string::npos);
    // Balanced braces is a cheap structural sanity check; the ctest
    // shell script validates with a real JSON parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Perfetto, PairsTenureEventsIntoDurationSlices)
{
    const TraceChunk chunk = buildTwoRequestChunk();
    std::ostringstream os;
    writePerfettoJson({chunk}, os);
    const std::string json = os.str();
    const Tick half = kTicksPerUnit / 2;

    // Each tenure_start/tenure_end pair collapses into one complete
    // slice whose ts is the start tick and dur the tenure length; the
    // request-to-completion wait rides along in args.
    std::ostringstream slice1;
    slice1 << "{\"name\": \"tenure\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": 1, \"ts\": " << half << ", \"dur\": "
           << kTicksPerUnit << ", \"args\": {\"seq\": 1, "
              "\"wait_ticks\": " << half + kTicksPerUnit << "}}";
    EXPECT_NE(json.find(slice1.str()), std::string::npos) << json;
    // Agent 2's tenure lands on its own track (tid 2).
    std::ostringstream slice2;
    slice2 << "{\"name\": \"tenure\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": 2, \"ts\": " << 2 * kTicksPerUnit;
    EXPECT_NE(json.find(slice2.str()), std::string::npos) << json;
    // Both pass slices carry their winner and full interval.
    std::ostringstream pass;
    pass << "{\"name\": \"pass\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 0, \"ts\": 0, \"dur\": " << half
         << ", \"args\": {\"winner\": 1, \"seq\": 1}}";
    EXPECT_NE(json.find(pass.str()), std::string::npos) << json;
}

TEST(Perfetto, MapsChunksToPidsAndAgentsToTids)
{
    // Two runs in one trace file: each chunk becomes its own Perfetto
    // process (pid 1, 2, ...) with the arbiter on tid 0 and agent k on
    // tid k, so multi-run traces never interleave tracks.
    BinaryTraceWriter first(2, "alpha");
    first.consume(requestEvent(makeRequest(1, 0, 1)));
    BinaryTraceWriter second(3, "beta");
    second.consume(requestEvent(makeRequest(3, 0, 1)));
    std::vector<std::uint8_t> bytes = first.finish();
    const auto more = second.finish();
    bytes.insert(bytes.end(), more.begin(), more.end());
    const auto chunks = readTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 2u);

    std::ostringstream os;
    writePerfettoJson(chunks, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"pid\": 1, \"args\": {\"name\": \"alpha\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 2, \"args\": {\"name\": \"beta\"}"),
              std::string::npos);
    // Thread metadata: arbiter tid 0 in both processes, agent tracks
    // numbered per chunk (chunk 2 has three agents).
    EXPECT_NE(json.find("\"pid\": 2, \"tid\": 0, \"args\": {\"name\": "
                        "\"arbiter\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 2, \"tid\": 3, \"args\": {\"name\": "
                        "\"agent 3\"}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"pid\": 1, \"tid\": 3"), std::string::npos);
    // The events themselves land in their owning process: chunk 2's
    // request instant is on pid 2, tid 3.
    EXPECT_NE(json.find("\"name\": \"request\", \"ph\": \"i\", \"s\": "
                        "\"t\", \"pid\": 2, \"tid\": 3"),
              std::string::npos);
}

TEST(Perfetto, EventsCsvHasOneRowPerEvent)
{
    const TraceChunk chunk = buildTwoRequestChunk();
    std::ostringstream os;
    writeEventsCsv({chunk}, os);
    const std::string text = os.str();
    EXPECT_EQ(text.find("chunk,protocol,tick,units,kind,agent,seq,"
                        "priority,retry,pass_start,counter,value"),
              0u);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              1 + static_cast<long>(chunk.events.size()));
}

} // namespace
} // namespace busarb
