#include "core/fcfs.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

FcfsProtocol::FcfsProtocol(const FcfsConfig &config) : config_(config)
{
    if (config_.enablePriority) {
        if (config_.strategy == FcfsStrategy::kIncrementOnLose &&
            config_.priorityCounting == PriorityCounting::kDualIncrLines) {
            BUSARB_FATAL("kDualIncrLines applies to the a-incr strategy "
                         "only (Section 3.2)");
        }
        if (config_.strategy == FcfsStrategy::kIncrLine &&
            config_.priorityCounting ==
                PriorityCounting::kMatchedIncrement) {
            BUSARB_FATAL("kMatchedIncrement applies to the increment-on-"
                         "lose strategy only; use kDualIncrLines or "
                         "kAlwaysIncrement (Section 3.2)");
        }
    }
    BUSARB_ASSERT(config_.counterBits >= 0 && config_.counterBits <= 32,
                  "counter width out of range: ", config_.counterBits);
    BUSARB_ASSERT(config_.maxOutstandingHint >= 1,
                  "maxOutstandingHint must be >= 1");
}

void
FcfsProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    if (config_.counterBits > 0) {
        counterBits_ = config_.counterBits;
    } else {
        // ceil(log2(N+1)) bits bound the losses a single-outstanding
        // request can suffer; r outstanding requests per agent need
        // ceil(log2 r) more (Section 3.2).
        counterBits_ = idBits_;
        int extra = 0;
        while ((1 << extra) < config_.maxOutstandingHint)
            ++extra;
        counterBits_ += extra;
    }
    counterMax_ = (counterBits_ >= 63) ? ~0ULL >> 1
                                       : ((1ULL << counterBits_) - 1ULL);
    windowTicks_ = unitsToTicks(config_.incrWindow);
    pending_.reset(num_agents);
    frozen_ = pending_.requestMask();
    scanned_ = frozen_;
    presented_.assign(static_cast<std::size_t>(num_agents) + 1, {});
    late_.clear();
    passOpen_ = false;
    clocks_ = {};
    retiredOverflows_ = 0;
    tiedArrivals_ = 0;
    arrivalsSinceLastArb_ = 0;
    settle_.reset(numLines());
}

int
FcfsProtocol::numLines() const
{
    return idBits_ + counterBits_ + (config_.enablePriority ? 1 : 0);
}

int
FcfsProtocol::clockIndex(bool priority) const
{
    // kMatchedIncrement (strategy 1) and kDualIncrLines (strategy 2)
    // give the priority class a count of its own.
    if (config_.enablePriority &&
        config_.priorityCounting != PriorityCounting::kAlwaysIncrement) {
        return priority ? 1 : 0;
    }
    return 0;
}

void
FcfsProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !config_.enablePriority)
        BUSARB_FATAL("priority request posted but enablePriority is off");

    EventClock &clock =
        clocks_[static_cast<std::size_t>(clockIndex(req.priority))];
    if (config_.strategy == FcfsStrategy::kIncrLine) {
        const bool line_idle =
            !clock.anyPulse || (req.issued - clock.lastPulse >=
                                windowTicks_);
        if (line_idle) {
            // The agent senses 0 on a-incr and pulses it; every waiting
            // request of this class counts the pulse.
            ++clock.count;
            clock.lastPulse = req.issued;
            clock.anyPulse = true;
        } else {
            // a-incr is already asserted: this request shares the pulse
            // (and therefore the counter value) of the previous arrival.
            ++tiedArrivals_;
        }
        pending_.add(req, clock.count);
        return;
    }

    // Strategy 1: the counter starts at zero and advances with each
    // arbitration the request observes and loses. A request posted
    // while a pass is open does not observe that pass.
    std::uint64_t stamp = clock.count;
    if (passOpen_) {
        if (config_.enablePriority &&
            config_.priorityCounting == PriorityCounting::kMatchedIncrement) {
            late_.emplace_back(req.agent, req.seq);
        } else {
            ++stamp; // the open pass advances the only count
        }
    }
    pending_.add(req, stamp);
    if (arrivalsSinceLastArb_ > 0)
        ++tiedArrivals_;
    ++arrivalsSinceLastArb_;
}

bool
FcfsProtocol::wantsPass() const
{
    return !pending_.empty();
}

std::uint64_t
FcfsProtocol::rawCounter(const PendingEntry &e) const
{
    return clocks_[static_cast<std::size_t>(clockIndex(e.req.priority))]
               .count -
           e.stamp;
}

std::uint64_t
FcfsProtocol::wordFor(const PendingEntry &e) const
{
    std::uint64_t counter = rawCounter(e);
    if (counter > counterMax_) {
        counter = (config_.overflow == OverflowPolicy::kSaturate)
                      ? counterMax_
                      : (counter & counterMax_);
    }
    std::uint64_t word = (counter << idBits_) |
                         static_cast<std::uint64_t>(e.req.agent);
    if (config_.enablePriority && e.req.priority)
        word |= 1ULL << (counterBits_ + idBits_);
    return word;
}

bool
FcfsProtocol::scansPresented() const
{
    return config_.enablePriority ||
           config_.overflow == OverflowPolicy::kWrap;
}

const PendingEntry &
FcfsProtocol::presentedBy(AgentId agent) const
{
    return maskHas(scanned_, agent)
               ? presented_[static_cast<std::size_t>(agent)]
               : pending_.oldest(agent);
}

std::uint64_t
FcfsProtocol::overflowEvents() const
{
    std::uint64_t events = retiredOverflows_;
    pending_.forEach([&](const PendingEntry &e) {
        // A request posted during the open pass is stamped ahead of the
        // count; it has not started counting yet.
        const auto &clock =
            clocks_[static_cast<std::size_t>(clockIndex(e.req.priority))];
        if (e.stamp <= clock.count && rawCounter(e) > counterMax_)
            ++events;
    });
    return events;
}

void
FcfsProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    // Requests present now compete in (or at least observe) this
    // arbitration; requests posted later do not.
    frozen_ = pending_.requestMask();
    if (!scansPresented())
        return;
    // An agent presents its maximum-word request. Without priority or
    // wrapping that is always its oldest (counters never shrink with
    // age); otherwise agents with several requests pick by scan, and
    // ties keep the oldest.
    const AgentMask &multi = pending_.multiMask();
    for (std::size_t w = 0; w < scanned_.size(); ++w)
        scanned_[w] = frozen_[w] & multi[w];
    forEachAgentIn(scanned_, [&](AgentId a) {
        const PendingEntry *best = nullptr;
        std::uint64_t best_word = 0;
        pending_.forEachOfAgent(a, [&](const PendingEntry &e) {
            const std::uint64_t word = wordFor(e);
            if (best == nullptr || word > best_word) {
                best = &e;
                best_word = word;
            }
        });
        presented_[static_cast<std::size_t>(a)] = *best;
    });
}

PassResult
FcfsProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    // The wired-OR maximum over the frozen competitors' words, taken at
    // resolution time: for the a-incr strategy, pulses that occurred
    // during the pass have already advanced the counters the agents
    // apply. The static identity in the low bits names the winner.
    std::uint64_t best = 0;
    if (scansPresented()) {
        forEachAgentIn(frozen_, [&](AgentId a) {
            best = std::max(best, wordFor(presentedBy(a)));
        });
    } else {
        // One class, clipped counters: every agent presents its oldest
        // request, and the word is (saturated counter, identity).
        const std::uint64_t count = clocks_[0].count;
        const std::uint64_t limit = counterMax_;
        const int shift = idBits_;
        pending_.forEachOldestIn(frozen_, [&](const PendingEntry &e) {
            const std::uint64_t counter = std::min(count - e.stamp, limit);
            best = std::max(best, (counter << shift) |
                                      static_cast<std::uint64_t>(
                                          e.req.agent));
        });
    }
    if (best == 0) {
        BUSARB_ASSERT(pending_.empty(),
                      "FCFS pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }

    const auto winner =
        static_cast<AgentId>(best & ((1ULL << idBits_) - 1ULL));
    PendingEntry *entry =
        maskHas(scanned_, winner)
            ? pending_.findBySeq(
                  winner,
                  presented_[static_cast<std::size_t>(winner)].req.seq)
            : &pending_.oldest(winner);
    BUSARB_ASSERT(entry != nullptr, "winning request vanished");
    const Request won = entry->req;

    if (config_.strategy == FcfsStrategy::kIncrementOnLose) {
        // Every request that observed this arbitration and was not
        // served increments its waiting-time counter (subject to the
        // priority counting rule): one step of its class's count. The
        // winner and the requests that did not observe the pass keep
        // their counters, so their stamps move with the count.
        const int index = clockIndex(won.priority);
        ++clocks_[static_cast<std::size_t>(index)].count;
        ++entry->stamp;
        for (const auto &[agent, seq] : late_) {
            PendingEntry *e = pending_.findBySeq(agent, seq);
            BUSARB_ASSERT(e != nullptr, "late request vanished");
            if (clockIndex(e->req.priority) == index)
                ++e->stamp;
        }
        late_.clear();
        arrivalsSinceLastArb_ = 0;
    }
    return PassResult::makeWinner(won);
}

void
FcfsProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    const PendingEntry *entry = pending_.findBySeq(req.agent, req.seq);
    BUSARB_ASSERT(entry != nullptr, "served request is not pending");
    if (rawCounter(*entry) > counterMax_)
        ++retiredOverflows_;
    pending_.popBySeq(req.agent, req.seq);
}

int
FcfsProtocol::settleRoundsForPass() const
{
    // The FCFS identities are wider (counter + static id), so the same
    // contest costs more settle rounds than under RR — the efficiency
    // difference Section 3.2 discusses.
    settle_.clear();
    forEachAgentIn(frozen_, [&](AgentId a) {
        settle_.add(a, wordFor(presentedBy(a)));
    });
    return settle_.rounds();
}

std::string
FcfsProtocol::name() const
{
    std::string n = "FCFS (";
    n += (config_.strategy == FcfsStrategy::kIncrementOnLose)
             ? "impl 1: increment-on-lose"
             : "impl 2: a-incr line";
    n += ")";
    return n;
}

} // namespace busarb
