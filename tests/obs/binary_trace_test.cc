/**
 * @file
 * Binary trace format tests: varint coding, writer/reader round-trips,
 * chunk concatenation, and malformed-input rejection.
 */

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/binary_trace.hh"

namespace busarb {
namespace {

std::uint64_t
roundTripVarint(std::uint64_t value, std::size_t *encoded_size = nullptr)
{
    std::vector<std::uint8_t> buf;
    appendVarint(buf, value);
    if (encoded_size != nullptr)
        *encoded_size = buf.size();
    const std::uint8_t *cursor = buf.data();
    std::uint64_t out = 0;
    EXPECT_TRUE(decodeVarint(&cursor, buf.data() + buf.size(), out));
    EXPECT_EQ(cursor, buf.data() + buf.size());
    return out;
}

TEST(Varint, RoundTripsEdgeValues)
{
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
          std::uint64_t{0xdeadbeef},
          std::numeric_limits<std::uint64_t>::max()}) {
        EXPECT_EQ(roundTripVarint(v), v) << "value " << v;
    }
}

TEST(Varint, EncodedSizesMatchLeb128)
{
    std::size_t size = 0;
    roundTripVarint(0, &size);
    EXPECT_EQ(size, 1u);
    roundTripVarint(127, &size);
    EXPECT_EQ(size, 1u);
    roundTripVarint(128, &size);
    EXPECT_EQ(size, 2u);
    roundTripVarint(std::numeric_limits<std::uint64_t>::max(), &size);
    EXPECT_EQ(size, 10u);
}

TEST(Varint, TruncatedInputFails)
{
    std::vector<std::uint8_t> buf;
    appendVarint(buf, 1u << 20); // multi-byte encoding
    for (std::size_t keep = 0; keep + 1 < buf.size(); ++keep) {
        const std::uint8_t *cursor = buf.data();
        std::uint64_t out = 0;
        EXPECT_FALSE(decodeVarint(&cursor, buf.data() + keep, out));
    }
}

TEST(Varint, OverlongInputFails)
{
    // Eleven continuation bytes can never be a valid 64-bit varint.
    const std::vector<std::uint8_t> buf(11, 0x80);
    const std::uint8_t *cursor = buf.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(decodeVarint(&cursor, buf.data() + buf.size(), out));
}

Request
makeRequest(AgentId agent, Tick issued, std::uint64_t seq,
            bool priority = false)
{
    Request req;
    req.agent = agent;
    req.issued = issued;
    req.seq = seq;
    req.priority = priority;
    return req;
}

TEST(BinaryTrace, RoundTripsEveryRecordKind)
{
    BinaryTraceWriter writer(4, "test-protocol");
    const std::uint64_t ops = writer.defineCounter("bus.ops");

    writer.consume(requestEvent(makeRequest(2, 1000, 7, true)));
    writer.consume(passStartEvent(1000));
    writer.consume(
        passResolveEvent(1500, 1000, makeRequest(2, 1000, 7), false));
    writer.consume(tenureStartEvent(makeRequest(2, 1000, 7), 1500));
    writer.counterUpdate(ops, 2000, 42);
    writer.consume(tenureEndEvent(makeRequest(2, 1000, 7), 2500));
    writer.consume(passStartEvent(2500));
    // A retry pass, then an idle one.
    writer.consume(passResolveEvent(3000, 2500, Request{}, true));
    writer.consume(passStartEvent(3000));
    writer.consume(passResolveEvent(3500, 3000, Request{}, false));

    const std::vector<std::uint8_t> bytes = writer.finish();
    const auto chunks = readTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 1u);
    const TraceChunk &chunk = chunks.front();

    EXPECT_EQ(chunk.numAgents, 4);
    EXPECT_EQ(chunk.protocol, "test-protocol");
    ASSERT_EQ(chunk.counterNames.size(), 1u);
    EXPECT_EQ(chunk.counterNames[0], "bus.ops");
    ASSERT_EQ(chunk.events.size(), 10u);

    const TraceEvent &request = chunk.events[0];
    EXPECT_EQ(request.kind, TraceEventKind::kRequestPosted);
    EXPECT_EQ(request.tick, 1000);
    EXPECT_EQ(request.agent, 2);
    EXPECT_EQ(request.seq, 7u);
    EXPECT_TRUE(request.priority);

    const TraceEvent &resolve = chunk.events[2];
    EXPECT_EQ(resolve.kind, TraceEventKind::kPassResolved);
    EXPECT_EQ(resolve.tick, 1500);
    EXPECT_EQ(resolve.passStart, 1000);
    EXPECT_EQ(resolve.agent, 2);
    EXPECT_FALSE(resolve.retry);

    const TraceEvent &counter = chunk.events[4];
    EXPECT_EQ(counter.kind, TraceEventKind::kCounterUpdate);
    EXPECT_EQ(counter.tick, 2000);
    EXPECT_EQ(counter.counterId, 0u);
    EXPECT_EQ(counter.counterValue, 42u);

    const TraceEvent &retry = chunk.events[7];
    EXPECT_EQ(retry.kind, TraceEventKind::kPassResolved);
    EXPECT_EQ(retry.agent, kNoAgent);
    EXPECT_TRUE(retry.retry);

    const TraceEvent &idle = chunk.events[9];
    EXPECT_EQ(idle.agent, kNoAgent);
    EXPECT_FALSE(idle.retry);
    EXPECT_EQ(idle.passStart, 3000);
}

TEST(BinaryTrace, ConcatenatedChunksDecodeInOrder)
{
    BinaryTraceWriter first(2, "alpha");
    first.consume(passStartEvent(100));
    std::vector<std::uint8_t> bytes = first.finish();

    BinaryTraceWriter second(3, "beta");
    second.consume(passStartEvent(200));
    second.consume(passStartEvent(300));
    const std::vector<std::uint8_t> tail = second.finish();
    bytes.insert(bytes.end(), tail.begin(), tail.end());

    const auto chunks = readTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].protocol, "alpha");
    EXPECT_EQ(chunks[0].numAgents, 2);
    EXPECT_EQ(chunks[0].events.size(), 1u);
    EXPECT_EQ(chunks[1].protocol, "beta");
    EXPECT_EQ(chunks[1].numAgents, 3);
    EXPECT_EQ(chunks[1].events.size(), 2u);
    // Tick deltas restart per chunk.
    EXPECT_EQ(chunks[1].events[0].tick, 200);
    EXPECT_EQ(chunks[1].events[1].tick, 300);
}

TEST(BinaryTrace, EmptyBufferYieldsNoChunks)
{
    EXPECT_TRUE(readTraceChunks(nullptr, 0).empty());
}

TEST(BinaryTrace, EventCountExcludesDefinitions)
{
    BinaryTraceWriter writer(1, "p");
    writer.defineCounter("a");
    EXPECT_EQ(writer.events(), 0u);
    writer.consume(passStartEvent(0));
    EXPECT_EQ(writer.events(), 1u);
}

TEST(BinaryTrace, RejectsMalformedInput)
{
    // Bad magic.
    const std::vector<std::uint8_t> junk = {'J', 'U', 'N', 'K', 1, 0};
    EXPECT_THROW(readTraceChunks(junk), std::runtime_error);

    BinaryTraceWriter writer(2, "p");
    writer.consume(passStartEvent(50));
    const std::vector<std::uint8_t> good = writer.finish();

    // Every truncation of a valid chunk must be rejected, not crash.
    for (std::size_t keep = 1; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(good.begin(),
                                            good.begin() + keep);
        EXPECT_THROW(readTraceChunks(cut), std::runtime_error)
            << "kept " << keep << " of " << good.size() << " bytes";
    }

    // Unsupported version byte.
    std::vector<std::uint8_t> wrong_version = good;
    wrong_version[4] = 99;
    EXPECT_THROW(readTraceChunks(wrong_version), std::runtime_error);

    // Unknown record tag where the end record belongs.
    std::vector<std::uint8_t> bad_tag = good;
    bad_tag[bad_tag.size() - 1] = 200;
    EXPECT_THROW(readTraceChunks(bad_tag), std::runtime_error);
}

TEST(BinaryTraceDeathTest, BackwardsTimePanics)
{
    BinaryTraceWriter writer(1, "p");
    writer.consume(passStartEvent(1000));
    EXPECT_DEATH(writer.consume(passStartEvent(500)), "backwards in time");
}

} // namespace
} // namespace busarb
