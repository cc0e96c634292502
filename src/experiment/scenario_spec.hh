/**
 * @file
 * Declarative scenario specs: one description of a workload, bus
 * parameters, run controls and sweep axes, buildable either from a
 * scenario file (an in-house INI subset) or from command-line flags.
 *
 * This is the construction seam the tools share: busarb_sim
 * (--scenario), busarb_sweep (--grid) and busarb_report all reduce
 * their inputs to a ScenarioSpec, then expand it cell by cell into
 * ScenarioConfig values with configForLoad(). Because both the flag
 * path and the file path go through the same expansion, a grid file
 * reproduces a flag invocation byte for byte.
 *
 * File format (full-line comments with '#' or ';'):
 *
 *     [workload]
 *     family = equal          # equal | unequal | worst-case
 *     agents = 30
 *     cv = 1
 *     load = 2                # single-run alternative to [sweep] loads
 *     source = open:dist=mmpp # workload-source spec (default closed)
 *     hot-agents = 2          # first K agents run hot (family equal)
 *     hot-factor = 4          # hot agents' per-agent load multiplier
 *
 *     [bus]
 *     arb-overhead = 0.5
 *     settle-timing = false
 *
 *     [run]
 *     batches = 10
 *     batch-size = 8000
 *     warmup = 8000           # defaults to batch-size when omitted
 *     seed = 0x5eedcafe
 *
 *     [protocol]
 *     spec = fcfs2:window=0.05,bits=3,wrap
 *
 *     [sweep]
 *     loads = 0.25 0.5 1 1.5 2       # lists and a:b:c ranges
 *     protocols = rr1 fcfs1 aap1     # spec strings, space-separated
 *
 * format() renders the canonical round-trip text, which the tools
 * record as the `scenario.spec` metrics annotation for provenance.
 */

#ifndef BUSARB_EXPERIMENT_SCENARIO_SPEC_HH
#define BUSARB_EXPERIMENT_SCENARIO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.hh"

namespace busarb {

class ArgParser;
struct ScenarioResult;

/** A declarative scenario: workload, bus, run controls, sweep axes. */
struct ScenarioSpec
{
    // [workload]
    std::string family = "equal"; // equal | unequal | worst-case
    int agents = 10;
    double cv = 1.0;
    double unequalFactor = 0.0; // required > 0 when family = unequal
    int maxOutstanding = 1;

    /**
     * Workload-source spec (experiment/workload_registry.hh grammar),
     * kept verbatim as written. "closed" — the default — reproduces
     * the paper's closed loop byte-for-byte.
     */
    std::string source = "closed";

    /**
     * Hot/cold load mix: the first hotAgents agents offer hotFactor
     * times the per-agent base load (family equal only; 0 disables).
     * Generalizes family=unequal's single hot agent to a hot set.
     */
    int hotAgents = 0;
    double hotFactor = 0.0; // required > 0 when hotAgents > 0

    // [bus]
    double arbOverhead = 0.5;
    bool settleTiming = false;
    bool worstCaseSettle = false;

    // [run]
    int batches = 10;
    long batchSize = 8000;
    bool warmupSet = false;
    long warmup = 0;
    std::uint64_t seed = 0x5eedcafe;
    double confidence = 0.90;

    // Axes: verbatim tokens, so CSV row labels and metric prefixes are
    // stable however the spec was written.
    std::vector<std::string> loadTokens;
    std::vector<std::string> protocolSpecs;

    /** The file text this spec was parsed from ("" for flag-built). */
    std::string rawText;

    /** @return The warm-up count, defaulting to the batch size. */
    std::uint64_t
    resolvedWarmup() const
    {
        return static_cast<std::uint64_t>(warmupSet ? warmup
                                                    : batchSize);
    }

    /**
     * @return Canonical scenario text; parsing it yields a spec that
     *         formats identically (round-trip property).
     */
    std::string format() const;

    /**
     * The load axis the grid sweeps. For sources with a load axis this
     * is loadTokens; for sources that fix their own arrival schedule
     * (trace replay, takesLoads = false) it is the single placeholder
     * token "-", so the grid still enumerates one cell per protocol
     * and row labels stay well-formed.
     */
    const std::vector<std::string> &loadAxis() const;

    /** @return True when the selected source has no load axis. */
    bool sourceTakesLoads() const;

    /**
     * Number of grid cells this spec expands to: one per load x
     * protocol pair, in row-emission order (loads outer, protocols
     * inner). This is the canonical cell enumeration every consumer —
     * the in-process sweep, the shard planner, the worker processes,
     * and the merge stage — must agree on; a cell's global index is
     * its identity in checkpoint manifests.
     *
     * @return loadAxis().size() * protocolSpecs.size().
     */
    std::size_t cellCount() const;

    /** @return The load token of grid cell `index` (loads-outer order). */
    const std::string &cellLoadToken(std::size_t index) const;

    /** @return The protocol spec of grid cell `index`. */
    const std::string &cellProtocolSpec(std::size_t index) const;

    /**
     * Expand one grid cell into a full ScenarioConfig. This is the one
     * code path that turns declarative inputs into runner configs —
     * for files and flags alike.
     *
     * @param load_token One of loadTokens (ignored, and may be "",
     *        when family is worst-case).
     * @return The scenario configuration for that load.
     */
    ScenarioConfig configForLoad(const std::string &load_token) const;
};

/**
 * Parse scenario-file text.
 *
 * @param text The file contents.
 * @param out Receives the spec on success.
 * @param error Receives "line N: message" naming the offending token
 *        (with a did-you-mean hint for unknown sections/keys).
 * @retval false The text did not validate.
 */
bool parseScenarioSpec(const std::string &text, ScenarioSpec &out,
                       std::string &error);

/**
 * Load a scenario file for a tool: unreadable files exit 1, parse
 * errors exit 2 — both with `program: path: ...` on stderr.
 */
ScenarioSpec scenarioSpecOrExit(const std::string &program,
                                const std::string &path);

/**
 * Declare the scenario flags shared by busarb_sim and busarb_report:
 * --scenario plus the workload/bus/run flags (--agents, --load, --cv,
 * --worst-case, --unequal-factor, --max-outstanding, --batches,
 * --batch-size, --warmup, --seed, --arb-overhead, --settle-timing,
 * --worst-case-settle).
 */
void addScenarioFlags(ArgParser &parser);

/**
 * Build the spec those flags describe. When --scenario names a file it
 * is loaded via scenarioSpecOrExit, and any explicitly set workload
 * flag is rejected (exit 2) — a scenario file is the single source of
 * truth for the run it describes.
 */
ScenarioSpec scenarioSpecFromFlags(const std::string &program,
                                   const ArgParser &parser);

/**
 * Re-run the scenario-file validation on a flag-built spec, so flags
 * and files reject the same contradictions identically (exit 2 with
 * the parser's message, which names the key and so the flag).
 */
void validateSpecOrExit(const std::string &program,
                        const ScenarioSpec &spec);

/**
 * Declare the observer flags shared by busarb_sim and busarb_sweep:
 * --trace-out, --metrics-out, --fairness, --fairness-window,
 * --bypass-bound, --snapshot-out, --snapshot-every, --health,
 * --health-strict, --health-rel-hw, --health-lag1.
 */
void addObserverFlags(ArgParser &parser);

/**
 * Read the observer flags into a tuning. Exits 2 naming the flag on an
 * artifact path without a parent directory, a value tuningError
 * (experiment/sweep_cells.hh) rejects, or --snapshot-every without
 * --snapshot-out (which in turn needs --snapshot-every or --health).
 */
SweepTuning observerTuningOrExit(const std::string &program,
                                 const ArgParser &parser);

/**
 * Write what the observer flags ask for, each in result order:
 * --trace-out (the trace chunks), --snapshot-out (fairness then health
 * JSONL) and --metrics-out (run i's metrics under "labels[i].", plus
 * the scenario.spec annotation); each write is reported on stdout.
 *
 * @retval false A file could not be written (reported on stderr).
 */
bool writeObserverOutputs(const ArgParser &parser,
                          const std::vector<ScenarioResult> &results,
                          const std::vector<std::string> &labels,
                          const std::string &scenario_text);

/**
 * The --health-strict gate: when the flag is set, name the first run
 * whose verdict is not converged on stderr.
 *
 * @return 3 — reserved for verdict failures, apart from I/O (1) and
 *         usage (2) errors — or 0.
 */
int healthStrictExitCode(const std::string &program,
                         const ArgParser &parser,
                         const std::vector<ScenarioResult> &results,
                         const std::vector<std::string> &labels);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_SCENARIO_SPEC_HH
