/**
 * @file
 * Sweep-cell assembly tests: the canonical cell enumeration (cell
 * index -> load x protocol), tuning-knob wiring into ScenarioConfig,
 * the canonical tuning key text, and buildSweepGrid's equivalence to
 * per-cell assembly.
 */

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "experiment/sweep_cells.hh"

namespace busarb {
namespace {

ScenarioSpec
gridSpec()
{
    ScenarioSpec spec;
    spec.agents = 6;
    spec.loadTokens = {"0.25", "1", "2.5"};
    spec.protocolSpecs = {"rr1", "fcfs1"};
    return spec;
}

TEST(SweepCells, CellEnumerationIsLoadsOuterProtocolsInner)
{
    const ScenarioSpec spec = gridSpec();
    ASSERT_EQ(spec.cellCount(), 6u);
    // Row-emission order: loads outer, protocols inner. This order is
    // the identity cells carry in checkpoint manifests, so it may
    // never change.
    const char *expected[][2] = {
        {"0.25", "rr1"}, {"0.25", "fcfs1"}, {"1", "rr1"},
        {"1", "fcfs1"},  {"2.5", "rr1"},    {"2.5", "fcfs1"},
    };
    for (std::size_t cell = 0; cell < spec.cellCount(); ++cell) {
        EXPECT_EQ(spec.cellLoadToken(cell), expected[cell][0])
            << "cell " << cell;
        EXPECT_EQ(spec.cellProtocolSpec(cell), expected[cell][1])
            << "cell " << cell;
    }
}

TEST(SweepCells, EmptyAxesYieldNoCells)
{
    ScenarioSpec spec;
    spec.loadTokens.clear();
    spec.protocolSpecs = {"rr1"};
    EXPECT_EQ(spec.cellCount(), 0u);
    spec.loadTokens = {"1"};
    spec.protocolSpecs.clear();
    EXPECT_EQ(spec.cellCount(), 0u);
}

TEST(SweepCells, TuningKnobsReachTheCellConfig)
{
    const ScenarioSpec spec = gridSpec();
    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.fairness = true;
    tuning.fairnessWindow = 12.5;
    tuning.bypassBound = 4;
    tuning.health = true;
    tuning.healthRelHw = 0.02;
    tuning.healthLag1 = 0.4;
    tuning.snapshotEvery = 7.0;
    tuning.healthSnapshots = true;

    const ScenarioConfig config =
        sweepCellConfig(spec, tuning, "sweep_cells_test", 2);
    EXPECT_EQ(config.tuning.canonicalKey(), tuning.canonicalKey());
    EXPECT_EQ(config.eventQueuePolicy, EventQueuePolicy::kCalendar);
}

TEST(SweepCells, BuildSweepGridMatchesPerCellAssembly)
{
    const ScenarioSpec spec = gridSpec();
    const SweepTuning tuning;
    const auto grid = buildSweepGrid(spec, tuning, "sweep_cells_test");
    ASSERT_EQ(grid.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
        const GridJob job =
            sweepCellJob(spec, tuning, "sweep_cells_test", cell);
        EXPECT_EQ(grid[cell].spec, job.spec) << "cell " << cell;
        EXPECT_EQ(grid[cell].config.totalOfferedLoad(),
                  job.config.totalOfferedLoad())
            << "cell " << cell;
        EXPECT_EQ(grid[cell].spec, spec.cellProtocolSpec(cell));
    }
}

TEST(SweepCells, CanonicalKeyIsStableText)
{
    // The key is hashed into the sweep fingerprint; its exact text is
    // load-bearing for checkpoint compatibility across versions.
    EXPECT_EQ(SweepTuning{}.canonicalKey(),
              "trace=0;fairness=0;fairness-window=50;bypass-bound=0;"
              "health=0;health-rel-hw=0.05;health-lag1=0.3;"
              "snapshot-every=0;health-snapshots=0");

    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.snapshotEvery = 2.5;
    EXPECT_EQ(tuning.canonicalKey(),
              "trace=1;fairness=0;fairness-window=50;bypass-bound=0;"
              "health=0;health-rel-hw=0.05;health-lag1=0.3;"
              "snapshot-every=2.5;health-snapshots=0");
}

TEST(SweepCells, TuningErrorNamesTheOffendingKey)
{
    EXPECT_EQ(tuningError(SweepTuning{}), "");
    const auto key_of = [](const SweepTuning &t) {
        const std::string error = tuningError(t);
        return error.substr(0, error.find(':'));
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    SweepTuning t;
    for (const double bad : {nan, inf, 0.0, -1.0, 1e-9, 1e300}) {
        t = SweepTuning{};
        t.fairnessWindow = bad;
        EXPECT_EQ(key_of(t), "fairness-window") << bad;
    }
    t = SweepTuning{};
    t.bypassBound = -3;
    EXPECT_EQ(key_of(t), "bypass-bound");
    for (const double bad : {nan, inf, 0.0, -1.0}) {
        t = SweepTuning{};
        t.healthRelHw = bad;
        EXPECT_EQ(key_of(t), "health-rel-hw") << bad;
        t = SweepTuning{};
        t.healthLag1 = bad;
        EXPECT_EQ(key_of(t), "health-lag1") << bad;
    }
    for (const double bad : {nan, inf, -1.0, 1e300}) {
        t = SweepTuning{};
        t.snapshotEvery = bad;
        EXPECT_EQ(key_of(t), "snapshot-every") << bad;
    }
}

} // namespace
} // namespace busarb
