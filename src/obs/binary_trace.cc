#include "obs/binary_trace.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace busarb {

namespace {

/** Record tags beyond the TraceEventKind values. */
constexpr std::uint8_t kTagEnd = 0;
constexpr std::uint8_t kTagDefineCounter = 7;

constexpr char kMagic[4] = {'B', 'A', 'T', 'R'};
constexpr std::uint8_t kVersion = 1;

[[noreturn]] void
malformed(const char *what)
{
    throw std::runtime_error(std::string("malformed binary trace: ") +
                             what);
}

std::uint64_t
readVarintOrThrow(const std::uint8_t **cursor, const std::uint8_t *end)
{
    std::uint64_t value = 0;
    if (!decodeVarint(cursor, end, value))
        malformed("truncated varint");
    return value;
}

} // namespace

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

bool
decodeVarint(const std::uint8_t **cursor, const std::uint8_t *end,
             std::uint64_t &out)
{
    const std::uint8_t *p = *cursor;
    std::uint64_t value = 0;
    for (int shift = 0; shift < 70; shift += 7) {
        if (p == end)
            return false;
        const std::uint8_t byte = *p++;
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *cursor = p;
            out = value;
            return true;
        }
    }
    return false; // more than 10 continuation bytes
}

BinaryTraceWriter::BinaryTraceWriter(int num_agents,
                                     const std::string &protocol)
{
    BUSARB_ASSERT(num_agents >= 1, "trace writer needs agents");
    buffer_.insert(buffer_.end(), kMagic, kMagic + sizeof(kMagic));
    buffer_.push_back(kVersion);
    appendVarint(buffer_, static_cast<std::uint64_t>(num_agents));
    appendVarint(buffer_, protocol.size());
    buffer_.insert(buffer_.end(), protocol.begin(), protocol.end());
}

void
BinaryTraceWriter::consume(const TraceEvent &event)
{
    BUSARB_ASSERT(!finished_, "write into a finished trace");
    BUSARB_ASSERT(event.tick >= lastTick_,
                  "trace event goes backwards in time");
    buffer_.push_back(static_cast<std::uint8_t>(event.kind));
    appendVarint(buffer_, static_cast<std::uint64_t>(event.tick - lastTick_));
    lastTick_ = event.tick;
    ++events_;
    // Field order mirrors the decoder in readTraceChunks.
    switch (event.kind) {
      case TraceEventKind::kRequestPosted:
        appendVarint(buffer_, static_cast<std::uint64_t>(event.agent));
        appendVarint(buffer_, event.seq);
        buffer_.push_back(event.priority ? 1 : 0);
        break;
      case TraceEventKind::kPassStarted:
        break;
      case TraceEventKind::kPassResolved: {
        appendVarint(buffer_,
                     static_cast<std::uint64_t>(event.tick - event.passStart));
        const bool has_winner = event.agent != kNoAgent;
        buffer_.push_back(has_winner ? 1 : (event.retry ? 2 : 0));
        if (has_winner) {
            appendVarint(buffer_, static_cast<std::uint64_t>(event.agent));
            appendVarint(buffer_, event.seq);
        }
        break;
      }
      case TraceEventKind::kTenureStarted:
      case TraceEventKind::kTenureEnded:
        appendVarint(buffer_, static_cast<std::uint64_t>(event.agent));
        appendVarint(buffer_, event.seq);
        break;
      case TraceEventKind::kCounterUpdate:
        BUSARB_ASSERT(event.counterId < nextCounterId_, "counter id ",
                      event.counterId, " was never defined");
        appendVarint(buffer_, event.counterId);
        appendVarint(buffer_, event.counterValue);
        break;
    }
}

std::uint64_t
BinaryTraceWriter::defineCounter(const std::string &name)
{
    BUSARB_ASSERT(!finished_, "write into a finished trace");
    buffer_.push_back(kTagDefineCounter);
    const std::uint64_t id = nextCounterId_++;
    appendVarint(buffer_, id);
    appendVarint(buffer_, name.size());
    buffer_.insert(buffer_.end(), name.begin(), name.end());
    return id;
}

void
BinaryTraceWriter::counterUpdate(std::uint64_t id, Tick now,
                                 std::uint64_t value)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::kCounterUpdate;
    ev.tick = now;
    ev.counterId = id;
    ev.counterValue = value;
    consume(ev);
}

std::vector<std::uint8_t>
BinaryTraceWriter::finish()
{
    BUSARB_ASSERT(!finished_, "finish called twice");
    finished_ = true;
    buffer_.push_back(kTagEnd);
    return std::move(buffer_);
}

std::vector<TraceChunk>
readTraceChunks(const std::uint8_t *data, std::size_t size)
{
    std::vector<TraceChunk> chunks;
    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    while (p != end) {
        if (end - p < 5 || p[0] != 'B' || p[1] != 'A' || p[2] != 'T' ||
            p[3] != 'R') {
            malformed("bad chunk magic");
        }
        p += 4;
        if (*p++ != kVersion)
            malformed("unsupported version");
        TraceChunk chunk;
        chunk.numAgents =
            static_cast<int>(readVarintOrThrow(&p, end));
        if (chunk.numAgents < 1)
            malformed("chunk without agents");
        const std::uint64_t name_len = readVarintOrThrow(&p, end);
        if (static_cast<std::uint64_t>(end - p) < name_len)
            malformed("truncated protocol name");
        chunk.protocol.assign(reinterpret_cast<const char *>(p),
                              static_cast<std::size_t>(name_len));
        p += name_len;

        Tick tick = 0;
        bool chunk_done = false;
        while (!chunk_done) {
            if (p == end)
                malformed("missing end record");
            const std::uint8_t tag = *p++;
            if (tag == kTagEnd) {
                chunk_done = true;
                break;
            }
            if (tag == kTagDefineCounter) {
                const std::uint64_t id = readVarintOrThrow(&p, end);
                if (id != chunk.counterNames.size())
                    malformed("counter ids out of order");
                const std::uint64_t len = readVarintOrThrow(&p, end);
                if (static_cast<std::uint64_t>(end - p) < len)
                    malformed("truncated counter name");
                chunk.counterNames.emplace_back(
                    reinterpret_cast<const char *>(p),
                    static_cast<std::size_t>(len));
                p += len;
                continue;
            }
            if (tag < 1 ||
                tag > static_cast<std::uint8_t>(
                          TraceEventKind::kCounterUpdate)) {
                malformed("unknown record tag");
            }
            TraceEvent ev;
            ev.kind = static_cast<TraceEventKind>(tag);
            tick += static_cast<Tick>(readVarintOrThrow(&p, end));
            ev.tick = tick;
            switch (ev.kind) {
              case TraceEventKind::kRequestPosted:
                ev.agent = static_cast<AgentId>(
                    readVarintOrThrow(&p, end));
                ev.seq = readVarintOrThrow(&p, end);
                if (p == end)
                    malformed("truncated request record");
                ev.priority = (*p++ != 0);
                break;
              case TraceEventKind::kPassStarted:
                break;
              case TraceEventKind::kPassResolved: {
                const std::uint64_t dur = readVarintOrThrow(&p, end);
                ev.passStart = tick - static_cast<Tick>(dur);
                if (p == end)
                    malformed("truncated pass record");
                const std::uint8_t flags = *p++;
                if (flags == 1) {
                    ev.agent = static_cast<AgentId>(
                        readVarintOrThrow(&p, end));
                    ev.seq = readVarintOrThrow(&p, end);
                } else if (flags == 2) {
                    ev.retry = true;
                } else if (flags != 0) {
                    malformed("bad pass flags");
                }
                break;
              }
              case TraceEventKind::kTenureStarted:
              case TraceEventKind::kTenureEnded:
                ev.agent = static_cast<AgentId>(
                    readVarintOrThrow(&p, end));
                ev.seq = readVarintOrThrow(&p, end);
                break;
              case TraceEventKind::kCounterUpdate:
                ev.counterId = readVarintOrThrow(&p, end);
                if (ev.counterId >= chunk.counterNames.size())
                    malformed("counter update before definition");
                ev.counterValue = readVarintOrThrow(&p, end);
                break;
            }
            chunk.events.push_back(ev);
        }
        chunks.push_back(std::move(chunk));
    }
    return chunks;
}

std::vector<TraceChunk>
readTraceChunks(const std::vector<std::uint8_t> &data)
{
    return readTraceChunks(data.data(), data.size());
}

} // namespace busarb
