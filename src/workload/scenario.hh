/**
 * @file
 * Scenario descriptions: the complete recipe for one simulation run, and
 * builders for the workload families of the paper's Section 4.
 */

#ifndef BUSARB_WORKLOAD_SCENARIO_HH
#define BUSARB_WORKLOAD_SCENARIO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/bus.hh"
#include "workload/agent_traits.hh"

namespace busarb {

/**
 * The per-run observer knobs: what a run records beside its results.
 * A single run carries one as ScenarioConfig::tuning; a sweep gives
 * every cell the same one and fingerprints its canonicalKey() (defined
 * with the sweep-cell assembly, experiment/sweep_cells.cc).
 */
struct SweepTuning
{
    /** Capture a binary event trace (obs/binary_trace.hh). */
    bool captureTrace = false;

    /** Attach the fairness auditor (obs/fairness_auditor.hh). */
    bool fairness = false;

    /** Fairness window width, transaction units. */
    double fairnessWindow = 50.0;

    /** Audited bypass bound (0 = the paper's N-1 guarantee). */
    int bypassBound = 0;

    /** Attach the run-health monitor (obs/run_health.hh). */
    bool health = false;

    /** Relative CI half-width target (the paper's "within 5%"). */
    double healthRelHw = 0.05;

    /** |lag-1| autocorrelation threshold for batch-mean independence. */
    double healthLag1 = 0.3;

    /** Fairness snapshot cadence in units (0 = off); implies fairness. */
    double snapshotEvery = 0.0;

    /** Emit a health snapshot line per batch; implies health. */
    bool healthSnapshots = false;

    /** @return Canonical text of every knob (the sweep fingerprint's). */
    std::string canonicalKey() const;
};

/** Full description of one simulation run. */
struct ScenarioConfig
{
    /** Number of agents; identities 1..N. */
    int numAgents = 10;

    /** Bus timing (Section 4.1 defaults). */
    BusParams bus;

    /** Per-agent workload; index i describes agent i+1. */
    std::vector<AgentTraits> agents;

    /**
     * Workload-source spec (experiment/workload_registry.hh grammar):
     * "closed" is the paper's think/request/service loop; "open:...",
     * "onoff:..." and "trace:..." select the open-loop, bursty and
     * trace-replay generators. The agents vector still carries the
     * per-agent load shape; the source decides whether load means
     * think-time scaling (closed) or arrival-rate scaling (open).
     */
    std::string workloadSpec = "closed";

    /** Base seed; each agent gets an independent sub-stream. */
    std::uint64_t seed = 0x5eedcafe;

    /**
     * Event-queue storage policy. kCalendar is the fast default; kHeap
     * is the reference heap kernel, selectable only here (no tool has a
     * flag for it) so differential tests and benchmarks can push the
     * identical scenario through both implementations (the determinism
     * contract makes every artifact byte-identical between them).
     */
    EventQueuePolicy eventQueuePolicy = EventQueuePolicy::kCalendar;

    /** Batch-means output analysis (Section 4.1: 10 x 8000). */
    int numBatches = 10;
    std::uint64_t batchSize = 8000;

    /** Completions discarded before measurement starts. */
    std::uint64_t warmup = 8000;

    /** Two-sided confidence level for interval estimates. */
    double confidence = 0.90;

    /** Collect the waiting-time histogram (Figure 4.1, Table 4.3). */
    bool collectHistogram = false;

    /** Additionally collect one waiting-time histogram per agent. */
    bool collectPerAgentHistograms = false;
    double histBinWidth = 0.25;
    std::size_t histBins = 1200;

    /**
     * Optional sink attached to the bus event stream for the run, after
     * the built-in observers (not owned; must outlive the runScenario
     * call). Useful for short diagnostic runs.
     */
    TraceSink *tracer = nullptr;

    /**
     * Retain the last M bus events in a flight recorder
     * (obs/flight_recorder.hh) and dump them to stderr if the run
     * panics — most usefully on a ProtocolChecker contract violation.
     * 0 disables.
     */
    std::size_t flightRecorderEvents = 0;

    /** The run's observers (each run owns its own). */
    SweepTuning tuning;

    /**
     * Collect a per-run self-profile (obs/profiler.hh): per-phase
     * wall-clock, events/sec, and queue-depth stats in
     * ScenarioResult::profile. Wall-clock numbers are host-only and
     * never feed back into the simulation.
     */
    bool profile = false;

    /** @return Sum of agent offered loads. */
    double totalOfferedLoad() const;
};

/**
 * Equal request rates (Tables 4.1 and 4.2).
 *
 * @param num_agents N.
 * @param total_load Total offered load; per-agent load is total/N.
 * @param cv Inter-request coefficient of variation.
 * @return Scenario with N identical agents.
 */
ScenarioConfig equalLoadScenario(int num_agents, double total_load,
                                 double cv = 1.0);

/**
 * One higher-rate requester (Table 4.4): agent 1's offered load is
 * `factor` times the common per-agent base load.
 *
 * @param num_agents N.
 * @param base_load Offered load of agents 2..N.
 * @param factor Agent 1's load multiplier (2.0 or 4.0 in the paper).
 * @param cv Inter-request coefficient of variation.
 * @return Scenario with one fast and N-1 regular agents.
 */
ScenarioConfig unequalLoadScenario(int num_agents, double base_load,
                                   double factor, double cv = 1.0);

/**
 * Worst case for the RR protocol (Table 4.5): agent 1 ("slow") has mean
 * inter-request time n - 0.5 and repeatedly just misses its round-robin
 * turn; all other agents have mean inter-request time n - 3.6.
 *
 * @param num_agents N.
 * @param cv Coefficient of variation applied to all agents.
 * @return Scenario with the contrived just-miss workload.
 */
ScenarioConfig worstCaseRrScenario(int num_agents, double cv);

/**
 * Apply an execution-overlap limit to all agents (Table 4.3).
 *
 * @param config Scenario to modify.
 * @param overlap The overlap value V, in transaction units.
 */
void setOverlapLimit(ScenarioConfig &config, double overlap);

} // namespace busarb

#endif // BUSARB_WORKLOAD_SCENARIO_HH
