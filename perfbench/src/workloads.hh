/**
 * @file
 * What busarb_perfbench and its tests share: loading a generated
 * grid into runnable cells, wrapping cells with the timing decorator,
 * and the per-cell digest row and invariant check that decide whether
 * a cell's simulated output is correct.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "timing_protocol.hh"

namespace perfbench {

/** One generated grid: its text, parsed spec, and expanded cells. */
struct Grid
{
    std::string text;
    busarb::ScenarioSpec spec;
    std::vector<busarb::GridJob> jobs;
};

/**
 * @return A copy of `jobs` whose factories report into `tallies`
 *         (resized to one tally per cell) and whose runs fill the
 *         self-profile (event count, queue depth).
 */
std::vector<busarb::GridJob>
tracedJobs(const std::vector<busarb::GridJob> &jobs,
           std::vector<CoreTally> &tallies);

/**
 * The cell's simulated output as one line: the summary CSV row
 * busarb_sweep writes, followed by the bus counters and the exact bit
 * patterns of the mean wait and its deviation. Equal rows mean equal
 * simulations; host timing never enters it.
 */
std::string digestRow(const busarb::ScenarioResult &result,
                      const std::string &label);

/** @return Bus transactions the cell completed (warm-up included). */
std::uint64_t cellTransactions(const busarb::ScenarioResult &result);

/**
 * Check the invariants every cell must satisfy whatever its seed: the
 * transaction count the config asks for, one batch per configured
 * batch, finite wait statistics.
 *
 * @return "" when the cell is sound, else the first violated rule.
 */
std::string cellProblem(const busarb::ScenarioResult &result,
                        const busarb::ScenarioConfig &config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
