/**
 * @file
 * Tests for the workload registry seam: every registered source
 * instantiates and smokes through the runner, spec strings round-trip
 * canonically, the error paths carry did-you-mean hints, and the
 * pre-run validation hooks reject doomed runs before they start.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/workload_registry.hh"
#include "support/temp_path.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

/** A small, fast scenario for registry smoke runs. */
ScenarioConfig
tinyScenario()
{
    ScenarioConfig config = equalLoadScenario(4, 1.0, 1.0);
    config.numBatches = 3;
    config.batchSize = 200;
    config.warmup = 200;
    return config;
}

std::string
parseError(const std::string &text)
{
    WorkloadSpec spec;
    std::string error;
    EXPECT_FALSE(
        WorkloadRegistry::builtin().parseSpec(text, spec, error))
        << text;
    return error;
}

WorkloadSpec
parseOk(const std::string &text)
{
    WorkloadSpec spec;
    std::string error;
    EXPECT_TRUE(WorkloadRegistry::builtin().parseSpec(text, spec, error))
        << text << ": " << error;
    return spec;
}

/** Writes a text trace long enough for tinyScenario and returns it. */
class TempTraceFile
{
  public:
    explicit TempTraceFile(int requests)
    {
        path_ = test::uniqueTempPath("workload_registry_trace", ".txt");
        std::ofstream out(path_);
        double t = 0.0;
        for (int i = 0; i < requests; ++i) {
            t += 0.25;
            out << t << ' ' << (1 + i % 4) << '\n';
        }
    }

    ~TempTraceFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(WorkloadRegistryTest, EverySourceRunsThroughTheRunner)
{
    TempTraceFile trace(2000);
    const std::string specs[] = {
        "closed",
        "open:rate=2,dist=exp",
        "open:rate=2,dist=pareto,alpha=1.8",
        "open:rate=2,dist=mmpp,burst=4,gap=8,ratio=5",
        "onoff:on=0.2,off=10,burst=8,gap=2",
        "trace:file=" + trace.path(),
    };
    for (const std::string &text : specs) {
        ScenarioConfig config = tinyScenario();
        config.workloadSpec = text;
        ASSERT_EQ(validateWorkloadRun(config), "") << text;
        const ScenarioResult result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        EXPECT_EQ(result.workloadSpec, text);
        EXPECT_GT(result.throughput().value, 0.0) << text;
    }
}

TEST(WorkloadRegistryTest, OpenLoopObservablesOnlyForOpenSources)
{
    ScenarioConfig closed = tinyScenario();
    const ScenarioResult closed_result =
        runScenario(closed, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_FALSE(closed_result.workload.openLoop);
    EXPECT_EQ(closed_result.metrics.counters().count("workload.issued"),
              0u);

    ScenarioConfig open = tinyScenario();
    open.workloadSpec = "open:rate=2";
    const ScenarioResult open_result =
        runScenario(open, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_TRUE(open_result.workload.openLoop);
    EXPECT_GT(open_result.workload.issued, 0u);
    EXPECT_EQ(open_result.metrics.counters().count("workload.issued"),
              1u);
    EXPECT_EQ(
        open_result.metrics.gauges().count("workload.offered_rate"),
        1u);
}

TEST(WorkloadRegistryTest, SpecsRoundTripCanonically)
{
    EXPECT_EQ(parseOk("closed").format(), "closed");
    // Options are canonicalized into declaration order with canonical
    // value text; re-parsing the canonical form is a fixed point.
    const WorkloadSpec spec =
        parseOk("open:alpha=1.50,dist=pareto,rate=2.0");
    EXPECT_EQ(spec.format(), "open:dist=pareto,rate=2,alpha=1.5");
    EXPECT_EQ(parseOk(spec.format()).format(), spec.format());
    EXPECT_EQ(parseOk("onoff:off=10,on=0.5").format(),
              "onoff:on=0.5,off=10");
}

TEST(WorkloadRegistryTest, UnknownKeysGetDidYouMeanHints)
{
    EXPECT_EQ(parseError("opne"),
              "unknown workload source key 'opne'; did you mean "
              "'open'?");
    EXPECT_EQ(parseError("clsed"),
              "unknown workload source key 'clsed'; did you mean "
              "'closed'?");
}

TEST(WorkloadRegistryTest, UnknownOptionsGetDidYouMeanHints)
{
    EXPECT_EQ(parseError("open:rte=2"),
              "unknown option 'rte' for workload source 'open'; did "
              "you mean 'rate'?");
}

TEST(WorkloadRegistryTest, CrossParameterValidationRejectsBadCombos)
{
    EXPECT_EQ(parseError("onoff:on=10,off=10"),
              "option 'on' must be smaller than 'off' (the ON phase "
              "is the bursty one)");
    EXPECT_EQ(parseError("trace"),
              "workload source 'trace' requires file=<path>");
}

TEST(WorkloadRegistryTest, OutOfRangeValuesAreRejected)
{
    EXPECT_NE(parseError("open:alpha=0.5").find("out of range"),
              std::string::npos);
    EXPECT_NE(parseError("open:dist=gamma").find("expects one of"),
              std::string::npos);
}

TEST(WorkloadRegistryTest, ValidateRunRejectsShortTraces)
{
    TempTraceFile trace(100);
    ScenarioConfig config = tinyScenario();
    config.workloadSpec = "trace:file=" + trace.path();
    const std::string error = validateWorkloadRun(config);
    EXPECT_NE(error.find("trace has 100 requests"), std::string::npos)
        << error;
}

TEST(WorkloadRegistryTest, ValidateRunRejectsMissingFiles)
{
    ScenarioConfig config = tinyScenario();
    config.workloadSpec = "trace:file=/nonexistent/never.trace";
    EXPECT_NE(validateWorkloadRun(config), "");
}

TEST(WorkloadRegistryTest, ValidateRunRejectsTooFewAgents)
{
    TempTraceFile trace(2000); // posts to agents 1..4
    ScenarioConfig config = tinyScenario();
    config.agents.resize(2);
    config.numAgents = 2;
    config.workloadSpec = "trace:file=" + trace.path();
    const std::string error = validateWorkloadRun(config);
    EXPECT_NE(error.find("agent"), std::string::npos) << error;
}

TEST(WorkloadRegistryTest, DescriptorLookupFollowsSpecKey)
{
    const WorkloadDescriptor *open =
        workloadDescriptorFor("open:rate=2,dist=mmpp");
    ASSERT_NE(open, nullptr);
    EXPECT_TRUE(open->openLoop);
    EXPECT_TRUE(open->takesLoads);

    const WorkloadDescriptor *trace =
        workloadDescriptorFor("trace:file=x");
    ASSERT_NE(trace, nullptr);
    EXPECT_FALSE(trace->takesLoads);

    EXPECT_EQ(workloadDescriptorFor("bogus"), nullptr);
}

TEST(WorkloadRegistryTest, PrintTableListsEverySourceAndOption)
{
    std::ostringstream os;
    WorkloadRegistry::builtin().printTable(os);
    const std::string table = os.str();
    for (const auto &desc : WorkloadRegistry::builtin().all()) {
        EXPECT_NE(table.find(desc.key), std::string::npos) << desc.key;
        for (const auto &param : desc.params)
            EXPECT_NE(table.find(param.name), std::string::npos)
                << desc.key << ":" << param.name;
    }
    EXPECT_NE(table.find("open loop"), std::string::npos);
    EXPECT_NE(table.find("no load axis"), std::string::npos);
}

} // namespace
} // namespace busarb
