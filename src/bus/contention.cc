#include "bus/contention.hh"

#include <bit>

#include "sim/logging.hh"

namespace busarb {

ContentionArbiter::ContentionArbiter(int num_lines) : numLines_(num_lines)
{
    BUSARB_ASSERT(num_lines >= 1 && num_lines <= 63,
                  "line count out of range: ", num_lines);
}

std::uint64_t
ContentionArbiter::appliedWord(std::uint64_t identity,
                               std::uint64_t lines) const
{
    // Section 2.1 rule: for each line i carrying 1 where the agent applies
    // 0, the agent removes the bits below i. Equivalently the agent keeps
    // only the bits at or above the highest such conflicting line (and the
    // conflicting bit itself is 0, so masking from the top conflict down
    // is exactly "remove the lower-order i-1 bits" for the dominant
    // conflict; lower conflicts are subsumed).
    const std::uint64_t conflicts = lines & ~identity;
    if (conflicts == 0)
        return identity; // nothing removed (or everything re-applied)
    // Highest conflicting line index.
    const int top = 63 - std::countl_zero(conflicts);
    // Keep bits strictly above the conflict.
    const std::uint64_t keep_mask = ~((2ULL << top) - 1ULL);
    return identity & keep_mask;
}

SettleResult
ContentionArbiter::settle(const std::vector<Competitor> &competitors) const
{
    SettleResult result;
    if (competitors.empty())
        return result;

    const std::uint64_t word_limit =
        (numLines_ >= 63) ? ~0ULL : ((1ULL << numLines_) - 1ULL);
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.word <= word_limit, "word ", c.word,
                      " does not fit in ", numLines_, " lines");
        BUSARB_ASSERT(c.word != 0,
                      "agent ", c.agent, " applied the reserved word 0");
    }

    // Every agent initially applies its full word. The scratch vector is
    // a member so steady-state arbitration passes allocate nothing.
    std::vector<std::uint64_t> &applied = appliedScratch_;
    applied.resize(competitors.size());
    for (std::size_t i = 0; i < competitors.size(); ++i)
        applied[i] = competitors[i].word;

    // Synchronous rounds: all agents observe the OR from the previous
    // round, then update simultaneously. One round corresponds to one
    // end-to-end propagation delay.
    int rounds = 0;
    while (true) {
        std::uint64_t lines = 0;
        for (std::uint64_t w : applied)
            lines |= w;
        bool changed = false;
        for (std::size_t i = 0; i < competitors.size(); ++i) {
            const std::uint64_t next = appliedWord(competitors[i].word,
                                                   lines);
            if (next != applied[i]) {
                applied[i] = next;
                changed = true;
            }
        }
        if (!changed) {
            result.settledWord = lines;
            break;
        }
        ++rounds;
        BUSARB_ASSERT(rounds <= 2 * numLines_ + 2,
                      "settle failed to converge");
    }
    result.rounds = rounds;

    for (const auto &c : competitors) {
        if (c.word == result.settledWord) {
            BUSARB_ASSERT(result.winner == kNoAgent,
                          "two agents settled on the same word");
            result.winner = c.agent;
        }
    }
    BUSARB_ASSERT(result.winner != kNoAgent,
                  "settled word matches no competitor");
    return result;
}

int
linesForAgents(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    int k = 0;
    while ((1 << k) < num_agents + 1)
        ++k;
    return k;
}

} // namespace busarb
