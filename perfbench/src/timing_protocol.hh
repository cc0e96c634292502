/**
 * @file
 * An ArbitrationProtocol decorator that measures the arbitration layer
 * in place: it forwards every call to the wrapped protocol unchanged
 * and counts requests, passes and retry passes, timing one call in
 * kSampleEvery of each kind with steady_clock.
 *
 * Sampling keeps the decorator's own cost small next to a pass (tens of
 * nanoseconds), and the calibrated cost of an empty timed region is
 * subtracted from every sample. The decorator never alters arguments,
 * results or call order, so a decorated run's simulated output is
 * identical to an undecorated one (tests/timing_protocol_test.cc).
 */

#ifndef PERFBENCH_TIMING_PROTOCOL_HH
#define PERFBENCH_TIMING_PROTOCOL_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "bus/protocol.hh"
#include "experiment/runner.hh"

namespace perfbench {

/** Counts and sampled host times of one cell's arbitration layer. */
struct CoreTally
{
    std::uint64_t requests = 0;
    std::uint64_t passes = 0;
    std::uint64_t retries = 0;
    std::uint64_t tenures = 0;

    std::uint64_t sampledRequests = 0;
    std::uint64_t sampledPasses = 0;
    std::uint64_t sampledTenures = 0;
    double requestNs = 0.0; ///< over sampled requests
    double passNs = 0.0;    ///< beginPass + completePass, sampled passes
    double tenureNs = 0.0;  ///< tenureStarted + tenureEnded, sampled

    double nsPerRequest() const;
    double nsPerPass() const;
    double nsPerTenure() const;

    /** @return Estimated total host ns spent inside the protocol. */
    double estimatedNs() const;
};

/**
 * @return Median cost in ns of one empty timed region (two
 *         steady_clock reads); measured once per process.
 */
double clockOverheadNs();

class TimingProtocol final : public busarb::ArbitrationProtocol
{
  public:
    /** One call in kSampleEvery of each kind is timed. */
    static constexpr std::uint64_t kSampleEvery = 8;

    TimingProtocol(std::unique_ptr<busarb::ArbitrationProtocol> inner,
                   CoreTally &tally)
        : inner_(std::move(inner)), tally_(tally),
          overheadNs_(clockOverheadNs())
    {
    }

    void reset(int num_agents) override { inner_->reset(num_agents); }

    void
    requestPosted(const busarb::Request &req) override
    {
        if (tally_.requests++ % kSampleEvery != 0) {
            inner_->requestPosted(req);
            return;
        }
        const auto start = Clock::now();
        inner_->requestPosted(req);
        tally_.requestNs += since(start);
        ++tally_.sampledRequests;
    }

    bool wantsPass() const override { return inner_->wantsPass(); }

    void
    beginPass(busarb::Tick now) override
    {
        timingPass_ = tally_.passes++ % kSampleEvery == 0;
        if (!timingPass_) {
            inner_->beginPass(now);
            return;
        }
        const auto start = Clock::now();
        inner_->beginPass(now);
        tally_.passNs += since(start);
    }

    busarb::PassResult
    completePass(busarb::Tick now) override
    {
        busarb::PassResult result;
        if (!timingPass_) {
            result = inner_->completePass(now);
        } else {
            const auto start = Clock::now();
            result = inner_->completePass(now);
            tally_.passNs += since(start);
            ++tally_.sampledPasses;
        }
        if (result.kind == busarb::PassResult::Kind::kRetry)
            ++tally_.retries;
        return result;
    }

    void
    tenureStarted(const busarb::Request &req, busarb::Tick now) override
    {
        timingTenure_ = tally_.tenures++ % kSampleEvery == 0;
        if (!timingTenure_) {
            inner_->tenureStarted(req, now);
            return;
        }
        const auto start = Clock::now();
        inner_->tenureStarted(req, now);
        tally_.tenureNs += since(start);
    }

    void
    tenureEnded(const busarb::Request &req, busarb::Tick now) override
    {
        if (!timingTenure_) {
            inner_->tenureEnded(req, now);
            return;
        }
        const auto start = Clock::now();
        inner_->tenureEnded(req, now);
        tally_.tenureNs += since(start);
        ++tally_.sampledTenures;
    }

    std::string name() const override { return inner_->name(); }

    int
    settleRoundsForPass() const override
    {
        return inner_->settleRoundsForPass();
    }

    int
    arbitrationLineCount() const override
    {
        return inner_->arbitrationLineCount();
    }

  private:
    using Clock = std::chrono::steady_clock;

    double
    since(Clock::time_point start) const
    {
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count() -
            overheadNs_;
        return ns > 0.0 ? ns : 0.0;
    }

    std::unique_ptr<busarb::ArbitrationProtocol> inner_;
    CoreTally &tally_;
    double overheadNs_;
    bool timingPass_ = false;
    bool timingTenure_ = false;
};

/**
 * Wrap a factory so every protocol it builds reports into `tally`.
 * The tally must outlive every run that uses the returned factory.
 */
busarb::ProtocolFactory timedFactory(busarb::ProtocolFactory inner,
                                     CoreTally &tally);

} // namespace perfbench

#endif // PERFBENCH_TIMING_PROTOCOL_HH
