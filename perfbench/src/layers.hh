/**
 * @file
 * Isolated per-layer measurements: each times one layer's public calls
 * at the parameters of the workload being benchmarked, outside any
 * simulation, and returns a median over repeated rounds.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace perfbench {

/**
 * EventQueue hold model: a queue kept at `depth` live events under
 * `policy`, where every executed event schedules its successor a
 * random delay ahead (the closed loop's shape).
 *
 * @return Median ns per executed event.
 */
double eventQueueNsPerEvent(std::size_t depth,
                            busarb::EventQueuePolicy policy);

/**
 * The workload layer's sampler at the cell's parameters: the closed
 * agents' think-time distribution, or the open-loop source's
 * inter-arrival distribution (named by its workload spec).
 *
 * @return Median ns per sampled arrival.
 */
double samplerNsPerArrival(const busarb::ScenarioConfig &config);

/**
 * What the metrics layer does per completion: a Welford update and a
 * histogram add, with a BatchMeans batch closed every `batch_size`
 * samples.
 *
 * @return Median ns per sample.
 */
double statsNsPerSample(std::size_t batch_size);

/** Result-codec and manifest costs over one pass's results. */
struct DistCosts
{
    double encodeUsPerCell = 0.0;
    double decodeUsPerCell = 0.0;
    double bytesPerCell = 0.0;
    double manifestAppendMs = 0.0; ///< median fsync'd append
    bool roundTripOk = true;       ///< decode(encode(r)) re-encodes equal
};

/**
 * Encode and decode every result repeatedly, then append each record
 * to a fresh manifest under `scratch_dir` with the fsync the workers
 * pay per cell.
 */
DistCosts measureDistCosts(const std::vector<busarb::ScenarioResult> &results,
                           const std::string &scratch_dir);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
