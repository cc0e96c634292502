/**
 * @file
 * Streaming fairness and liveness auditor for bus arbitration runs.
 *
 * The paper's central claims are fairness properties: the distributed
 * round-robin protocol guarantees bounded waiting (an agent that keeps
 * its request line asserted is bypassed by at most N-1 other grants),
 * FCFS approximates arrival-order service, and the assured-access
 * baselines of Section 2.2 admit batch unfairness (high identities are
 * served first in every batch, and a request that just misses a batch
 * waits out the whole batch). This auditor turns those qualitative
 * claims into continuously checked, exported quantities.
 *
 * It is a TraceSink: it audits a run live on the bus event stream, and
 * `busarb_trace audit` replays the decoded events of an existing
 * --trace-out file through the identical entry point.
 * Per agent it tracks:
 *
 *  - bypass counts between request post and grant, flagging any grant
 *    whose request was bypassed more than the configured bound (N-1 by
 *    default — the paper's RR guarantee, audited against any protocol);
 *  - arrival-order inversions: at each grant, the number of still
 *    pending older requests (FCFS should keep this near zero);
 *  - a starvation watchdog: the longest interval an agent spent with a
 *    request posted and no service;
 *  - windowed wait means and Jain's fairness index over per-agent
 *    completions, per tumbling window of simulated time
 *    (stats/fairness.hh), plus whole-run Jain indices over completions
 *    and mean waits.
 *
 * Everything is exported as `fairness.*` entries in a MetricsRegistry
 * (deterministically mergeable across JobPool runs) and, optionally, as
 * JSONL snapshots keyed to simulated-time boundaries, so the snapshot
 * stream is byte-identical at any --jobs count.
 */

#ifndef BUSARB_OBS_FAIRNESS_AUDITOR_HH
#define BUSARB_OBS_FAIRNESS_AUDITOR_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bus/trace.hh"
#include "obs/metrics_registry.hh"
#include "stats/fairness.hh"

namespace busarb {

/** Configuration of one FairnessAuditor. */
struct FairnessAuditorConfig
{
    /** Number of agents on the audited bus (identities 1..N). */
    int numAgents = 0;

    /** Width of the fairness windows, in ticks; must be >= 1. */
    Tick windowTicks = 50 * kTicksPerUnit;

    /**
     * Bypass bound audited at every grant; a grant whose request was
     * bypassed by more than this many other-agent grants counts as a
     * violation. <= 0 selects the paper's RR bound, N-1.
     */
    int bypassBound = 0;

    /**
     * Emit one JSONL snapshot each time simulated time crosses a
     * multiple of this many ticks (0 disables). A snapshot at boundary
     * B reflects exactly the events with tick < B, so the stream is a
     * pure function of the event stream.
     */
    Tick snapshotEveryTicks = 0;

    /** Label stamped into each snapshot line (e.g. protocol name). */
    std::string label;
};

/**
 * Streaming consumer of bus events computing fairness measures.
 *
 * Feed it events through consume(), live or from a decoded trace; call
 * finish() exactly once when the stream ends, then read the results.
 */
class FairnessAuditor final : public TraceSink
{
  public:
    /** @param config Auditor configuration; numAgents must be >= 1. */
    explicit FairnessAuditor(const FairnessAuditorConfig &config);

    /** Consume one bus event. */
    void consume(const TraceEvent &event) override;

    /**
     * End the stream: account still-pending requests into the
     * starvation watchdog, close fairness windows, and emit any
     * remaining snapshot boundaries at or before `end`.
     *
     * @param end Final simulated tick (>= every consumed event).
     */
    void finish(Tick end);

    /** @return The bound audited at each grant (resolved, not raw). */
    int bypassBound() const { return bound_; }

    /** @return Grants observed (pass resolutions with a winner). */
    std::uint64_t grants() const { return grants_; }

    /** @return Completions observed (tenure-ended events). */
    std::uint64_t completions() const { return completions_; }

    /** @return Grants whose request exceeded the bypass bound. */
    std::uint64_t boundViolations() const { return boundViolations_; }

    /** @return Arrival-order inversions (older pending pairs skipped). */
    std::uint64_t inversions() const { return inversions_; }

    /** @return Largest bypass count any grant accumulated. */
    std::uint64_t maxBypasses() const { return maxBypasses_; }

    /** @return Largest bypass count among `agent`'s grants. */
    std::uint64_t agentMaxBypasses(AgentId agent) const;

    /**
     * @return Longest observed request-to-service interval in ticks,
     *         including requests still unserved at finish().
     */
    Tick maxStarvationTicks() const { return maxStarvation_; }

    /** @return One agent's longest request-to-service interval. */
    Tick agentMaxStarvationTicks(AgentId agent) const;

    /** @return Jain's index over per-agent completion totals. */
    double jainCompletions() const;

    /**
     * @return Jain's index over per-agent mean waits (agents with no
     *         completions excluded); 1.0 when nothing completed.
     */
    double jainWaits() const;

    /** @return Per-window summaries (stats/fairness.hh). */
    const WindowedFairness &windows() const { return windows_; }

    /**
     * Export every measure as `fairness.*` entries into `m`. Counter
     * entries merge by summing, gauge entries merge exactly, so merged
     * multi-run registries stay deterministic.
     *
     * @param m Destination registry.
     */
    void exportMetrics(MetricsRegistry &m) const;

    /** @return Accumulated snapshot JSONL (empty when disabled). */
    const std::string &snapshots() const { return snapshots_; }

    /**
     * Render a one-paragraph human-readable summary (used by
     * `busarb_trace audit`).
     *
     * @param os Destination stream.
     */
    void printSummary(std::ostream &os) const;

  private:
    /** One posted request not yet granted. */
    struct PendingRequest
    {
        AgentId agent = kNoAgent;
        std::uint64_t seq = 0;
        Tick posted = 0;
        std::uint64_t bypasses = 0;
    };

    /** One granted request not yet completed. */
    struct GrantedRequest
    {
        AgentId agent = kNoAgent;
        std::uint64_t seq = 0;
        Tick posted = 0;
        bool started = false; ///< tenure began (service was delivered)
    };

    /** Whole-run accumulators of one agent. */
    struct AgentStats
    {
        std::uint64_t completions = 0;
        double waitSumUnits = 0.0;
        double minWaitUnits = 0.0;
        double maxWaitUnits = 0.0;
        std::uint64_t maxBypasses = 0;
        Tick maxStarvation = 0;
    };

    int numAgents_;
    int bound_;
    Tick snapshotEvery_;
    Tick nextSnapshot_;
    std::string label_;
    bool finished_ = false;

    // Sorted by seq (requests post in global seq order), tiny in
    // practice (<= N * maxOutstanding), so linear scans are cheap.
    std::vector<PendingRequest> pending_;
    std::vector<GrantedRequest> granted_;
    std::vector<AgentStats> agents_; // index 0 -> agent 1

    std::uint64_t grants_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t boundViolations_ = 0;
    std::uint64_t inversions_ = 0;
    std::uint64_t maxBypasses_ = 0;
    Tick maxStarvation_ = 0;
    double waitSumUnits_ = 0.0;
    Tick lastTick_ = 0;

    WindowedFairness windows_;
    std::string snapshots_;

    void handleRequestPosted(const TraceEvent &ev);
    void handleGrant(const TraceEvent &ev);
    void handleTenureStarted(const TraceEvent &ev);
    void handleTenureEnded(const TraceEvent &ev);

    /** Emit snapshots for every boundary at or before `tick`. */
    void emitSnapshotsThrough(Tick tick);

    /** Append one snapshot line for boundary `boundary`. */
    void writeSnapshotLine(Tick boundary);

    AgentStats &agentStats(AgentId agent);
    const AgentStats &agentStats(AgentId agent) const;
};

} // namespace busarb

#endif // BUSARB_OBS_FAIRNESS_AUDITOR_HH
