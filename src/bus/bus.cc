#include "bus/bus.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace busarb {

Bus::Bus(EventQueue &queue, std::unique_ptr<ArbitrationProtocol> protocol,
         int num_agents, const BusParams &params)
    : queue_(queue), protocol_(std::move(protocol)), numAgents_(num_agents),
      serviceTicks_(unitsToTicks(params.transactionTime)),
      arbTicks_(unitsToTicks(params.arbitrationOverhead)),
      settleTiming_(params.settleTiming),
      worstCaseSettle_(params.settleMode ==
                       BusParams::SettleMode::kWorstCase),
      propTicks_(unitsToTicks(params.propagationDelay)),
      controlRounds_(params.controlRounds)
{
    BUSARB_ASSERT(protocol_ != nullptr, "bus needs a protocol");
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    BUSARB_ASSERT(serviceTicks_ > 0, "transaction time must be positive");
    BUSARB_ASSERT(arbTicks_ >= 0, "arbitration overhead must be >= 0");
    BUSARB_ASSERT(!settleTiming_ ||
                  (propTicks_ > 0 && controlRounds_ >= 0),
                  "settle timing needs a positive propagation delay and "
                  "non-negative control rounds");
    protocol_->reset(num_agents);
}

void
Bus::emit(const TraceEvent &event)
{
    for (TraceSink *sink : sinks_)
        sink->consume(event);
}

Request
Bus::postRequest(AgentId agent, bool priority)
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    Request req;
    req.agent = agent;
    req.issued = queue_.now();
    req.priority = priority;
    req.seq = ++seq_;
    protocol_->requestPosted(req);
    if (!sinks_.empty())
        emit(requestEvent(req));
    maybeStartPass();
    return req;
}

void
Bus::maybeStartPass()
{
    if (passInProgress_ || winnerDecided_ || passStartPending_)
        return;
    if (!protocol_->wantsPass())
        return;
    // Defer the actual pass start to a same-tick event that runs after
    // every same-tick request arrival: agents that assert the request
    // line at the same instant all compete in the arbitration that
    // starts at that instant.
    passStartPending_ = true;
    queue_.schedule(queue_.now(), [this] { startPassNow(); },
                    kPriBeginPass);
}

void
Bus::startPassNow()
{
    BUSARB_ASSERT(passStartPending_, "pass start without scheduling");
    passStartPending_ = false;
    if (passInProgress_ || winnerDecided_)
        return;
    if (!protocol_->wantsPass())
        return;
    passInProgress_ = true;
    passStart_ = queue_.now();
    ++passes_;
    protocol_->beginPass(queue_.now());
    if (!sinks_.empty())
        emit(passStartEvent(queue_.now()));
    Tick duration = arbTicks_;
    if (settleTiming_) {
        if (worstCaseSettle_) {
            const int k = protocol_->arbitrationLineCount();
            if (k > 0) {
                duration = propTicks_ *
                           static_cast<Tick>(controlRounds_ +
                                             (k + 1) / 2);
            }
        } else {
            const int rounds = protocol_->settleRoundsForPass();
            if (rounds >= 0) {
                duration = propTicks_ *
                           static_cast<Tick>(controlRounds_ + rounds);
            }
        }
    }
    queue_.scheduleIn(duration, [this] { passCompleted(); },
                      kPriArbitration);
}

void
Bus::passCompleted()
{
    BUSARB_ASSERT(passInProgress_, "pass completion without a pass");
    passInProgress_ = false;
    const PassResult result = protocol_->completePass(queue_.now());
    if (!sinks_.empty()) {
        emit(passResolveEvent(queue_.now(), passStart_, result.winner,
                              result.kind == PassResult::Kind::kRetry));
    }
    switch (result.kind) {
      case PassResult::Kind::kWinner:
        BUSARB_ASSERT(result.winner.valid(), "winner without an agent");
        winnerDecided_ = true;
        nextMaster_ = result.winner;
        if (!busy_) {
            // The overhead of this pass (from when the bus was last free)
            // delayed the grant; account it as exposed.
            exposedArbTicks_ +=
                queue_.now() - std::max(passStart_, lastFreeTick_);
            startTenure(nextMaster_);
        }
        break;
      case PassResult::Kind::kRetry:
        ++retryPasses_;
        maybeStartPass();
        break;
      case PassResult::Kind::kIdle:
        // Requests may have been posted while the pass was in flight.
        maybeStartPass();
        break;
    }
}

void
Bus::startTenure(const Request &req)
{
    BUSARB_ASSERT(!busy_, "tenure started while the bus is busy");
    winnerDecided_ = false;
    busy_ = true;
    current_ = req;
    protocol_->tenureStarted(req, queue_.now());
    if (!sinks_.empty())
        emit(tenureStartEvent(req, queue_.now()));
    if (observer_ != nullptr)
        observer_->onServiceStart(req, queue_.now());
    busyTicks_ += serviceTicks_;
    queue_.scheduleIn(serviceTicks_, [this] { transactionCompleted(); },
                      kPriTransactionEnd);
    // "Arbitration for the next master starts at the beginning of a bus
    // transaction whenever requests are waiting" (Section 4.1).
    maybeStartPass();
}

void
Bus::transactionCompleted()
{
    BUSARB_ASSERT(busy_, "transaction completed while idle");
    busy_ = false;
    lastFreeTick_ = queue_.now();
    ++completed_;
    const Request finished = current_;
    current_ = Request{};
    protocol_->tenureEnded(finished, queue_.now());
    if (!sinks_.empty())
        emit(tenureEndEvent(finished, queue_.now()));
    if (observer_ != nullptr)
        observer_->onServiceEnd(finished, queue_.now());
    if (winnerDecided_) {
        startTenure(nextMaster_);
    } else {
        // Either a pass is still in flight (the grant will happen at its
        // completion) or nothing is pending; re-check in case a request
        // was posted by the observer callback just now.
        maybeStartPass();
    }
}

} // namespace busarb
