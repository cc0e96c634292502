#include "experiment/sweep_cells.hh"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/workload_registry.hh"
#include "obs/export_format.hh"
#include "sim/types.hh"

namespace busarb {

std::string
SweepTuning::canonicalKey() const
{
    // Every knob, in a fixed order with locale-independent formatting.
    // The text is hashed into shard fingerprints, so it may never
    // change for an unchanged tuning.
    std::ostringstream os;
    os << "trace=" << (captureTrace ? 1 : 0)
       << ";fairness=" << (fairness ? 1 : 0)
       << ";fairness-window=" << formatDouble(fairnessWindow)
       << ";bypass-bound=" << bypassBound
       << ";health=" << (health ? 1 : 0)
       << ";health-rel-hw=" << formatDouble(healthRelHw)
       << ";health-lag1=" << formatDouble(healthLag1)
       << ";snapshot-every=" << formatDouble(snapshotEvery)
       << ";health-snapshots=" << (healthSnapshots ? 1 : 0);
    return os.str();
}

std::string
tuningError(const SweepTuning &tuning)
{
    // unitsToTicks casts double -> int64, defined only below kMaxTick.
    const auto in_ticks = [](double units) {
        return std::isfinite(units) && units >= 0.0 &&
               units <= static_cast<double>(kMaxTick / kTicksPerUnit) / 2;
    };
    const auto positive = [](double v) {
        return std::isfinite(v) && v > 0.0;
    };
    const auto bad = [](const char *key, const char *want, double got) {
        return std::string(key) + ": must be " + want + ", got " +
               formatDouble(got);
    };
    const double window = tuning.fairnessWindow;
    if (!in_ticks(window) || unitsToTicks(window) < 1)
        return bad("fairness-window", "finite and >= 1e-06 (one tick)",
                   window);
    if (tuning.bypassBound < 0)
        return bad("bypass-bound", ">= 0 (0 = N-1)", tuning.bypassBound);
    if (!positive(tuning.healthRelHw))
        return bad("health-rel-hw", "finite and > 0", tuning.healthRelHw);
    if (!positive(tuning.healthLag1))
        return bad("health-lag1", "finite and > 0", tuning.healthLag1);
    if (!in_ticks(tuning.snapshotEvery))
        return bad("snapshot-every", "finite and >= 0",
                   tuning.snapshotEvery);
    return "";
}

ScenarioConfig
sweepCellConfig(const ScenarioSpec &spec, const SweepTuning &tuning,
                const std::string &program, std::size_t cell)
{
    const std::string &token = spec.cellLoadToken(cell);
    // Sources without a load axis sweep the placeholder token "-",
    // which is not a number and carries no load to validate.
    if (spec.sourceTakesLoads())
        parseDoubleTokenOrExit(program, "loads", token);
    ScenarioConfig config = spec.configForLoad(token);
    const std::string workload_error = validateWorkloadRun(config);
    if (!workload_error.empty()) {
        std::cerr << program << ": " << workload_error << "\n";
        std::exit(2);
    }
    config.tuning = tuning;
    return config;
}

GridJob
sweepCellJob(const ScenarioSpec &spec, const SweepTuning &tuning,
             const std::string &program, std::size_t cell)
{
    const std::string &proto = spec.cellProtocolSpec(cell);
    return {sweepCellConfig(spec, tuning, program, cell),
            protocolFactoryOrExit(program, proto), proto};
}

std::vector<GridJob>
buildSweepGrid(const ScenarioSpec &spec, const SweepTuning &tuning,
               const std::string &program)
{
    std::vector<GridJob> grid;
    grid.reserve(spec.cellCount());
    for (std::size_t cell = 0; cell < spec.cellCount(); ++cell)
        grid.push_back(sweepCellJob(spec, tuning, program, cell));
    return grid;
}

} // namespace busarb
