/**
 * @file
 * Tests for declarative scenario specs: the INI-subset parser, the
 * canonical format() round trip, the single configForLoad() expansion
 * path shared by flags and files, and the error paths with their line
 * numbers and did-you-mean hints.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/cli.hh"
#include "experiment/scenario_spec.hh"
#include "support/temp_path.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

ScenarioSpec
parseOk(const std::string &text)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(parseScenarioSpec(text, spec, error))
        << text << ": " << error;
    return spec;
}

std::string
parseError(const std::string &text)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parseScenarioSpec(text, spec, error)) << text;
    return error;
}

TEST(ScenarioSpecParseTest, EmptyTextYieldsDefaults)
{
    const ScenarioSpec spec = parseOk("");
    EXPECT_EQ(spec.family, "equal");
    EXPECT_EQ(spec.agents, 10);
    EXPECT_DOUBLE_EQ(spec.cv, 1.0);
    EXPECT_EQ(spec.maxOutstanding, 1);
    EXPECT_EQ(spec.batches, 10);
    EXPECT_EQ(spec.batchSize, 8000);
    EXPECT_EQ(spec.resolvedWarmup(), 8000u);
    EXPECT_EQ(spec.seed, 0x5eedcafeu);
    EXPECT_DOUBLE_EQ(spec.confidence, 0.90);
    EXPECT_TRUE(spec.loadTokens.empty());
    EXPECT_TRUE(spec.protocolSpecs.empty());
}

TEST(ScenarioSpecParseTest, CommentsAndBlankLinesAreIgnored)
{
    const ScenarioSpec spec = parseOk("# heading comment\n"
                                      "\n"
                                      "[workload]\n"
                                      "; another comment style\n"
                                      "agents = 16\n"
                                      "  cv = 2  \n");
    EXPECT_EQ(spec.agents, 16);
    EXPECT_DOUBLE_EQ(spec.cv, 2.0);
}

TEST(ScenarioSpecParseTest, LoadRangesExpandInclusively)
{
    const ScenarioSpec spec =
        parseOk("[sweep]\nloads = 0.5:2:0.5 5\n");
    EXPECT_EQ(spec.loadTokens,
              (std::vector<std::string>{"0.5", "1", "1.5", "2", "5"}));
}

TEST(ScenarioSpecParseTest, SeedAcceptsHex)
{
    EXPECT_EQ(parseOk("[run]\nseed = 0x10\n").seed, 16u);
    EXPECT_EQ(parseOk("[run]\nseed = 12345\n").seed, 12345u);
}

TEST(ScenarioSpecParseTest, WarmupDefaultsToBatchSize)
{
    EXPECT_EQ(parseOk("[run]\nbatch-size = 4000\n").resolvedWarmup(),
              4000u);
    EXPECT_EQ(parseOk("[run]\nbatch-size = 4000\nwarmup = 0\n")
                  .resolvedWarmup(),
              0u);
}

TEST(ScenarioSpecParseTest, ListKeysAccumulateAcrossLines)
{
    const ScenarioSpec spec = parseOk("[protocol]\n"
                                      "spec = rr1\n"
                                      "spec = fcfs1:window=0.05\n"
                                      "[sweep]\n"
                                      "loads = 1\n"
                                      "loads = 2 3\n");
    EXPECT_EQ(spec.protocolSpecs,
              (std::vector<std::string>{"rr1", "fcfs1:window=0.05"}));
    EXPECT_EQ(spec.loadTokens,
              (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ScenarioSpecFormatTest, ParseFormatRoundTrips)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = unequal\n"
                                      "agents = 8\n"
                                      "unequal-factor = 4\n"
                                      "cv = 2\n"
                                      "max-outstanding = 4\n"
                                      "[run]\n"
                                      "batches = 5\n"
                                      "batch-size = 400\n"
                                      "seed = 0x10\n"
                                      "[sweep]\n"
                                      "loads = 1 1.5\n"
                                      "protocols = rr1 wrr:weights=4/1\n");
    const std::string canonical = spec.format();
    const ScenarioSpec again = parseOk(canonical);
    EXPECT_EQ(again.format(), canonical);
    EXPECT_NE(canonical.find("unequal-factor = 4"), std::string::npos);
    EXPECT_NE(canonical.find("seed = 16"), std::string::npos);
    EXPECT_NE(canonical.find("protocols = rr1 wrr:weights=4/1"),
              std::string::npos);
}

TEST(ScenarioSpecFormatTest, FlagBuiltSpecMatchesEquivalentFile)
{
    ArgParser parser("prog", "test");
    addScenarioFlags(parser);
    std::vector<const char *> args{"prog",      "--agents", "8",
                                   "--load",    "1.5",      "--cv",
                                   "2",         "--batches", "4"};
    ASSERT_TRUE(parser.parse(static_cast<int>(args.size()), args.data()));
    const ScenarioSpec from_flags =
        scenarioSpecFromFlags("prog", parser);

    const ScenarioSpec from_file = parseOk("[workload]\n"
                                           "family = equal\n"
                                           "agents = 8\n"
                                           "cv = 2\n"
                                           "[run]\n"
                                           "batches = 4\n"
                                           "warmup = 8000\n"
                                           "[sweep]\n"
                                           "loads = 1.5\n");
    EXPECT_EQ(from_flags.format(), from_file.format());
}

TEST(ScenarioSpecConfigTest, EqualFamilyMatchesHandBuiltConfig)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "agents = 6\n"
                                      "cv = 2\n"
                                      "max-outstanding = 3\n"
                                      "[bus]\n"
                                      "arb-overhead = 0.25\n"
                                      "[run]\n"
                                      "batches = 5\n"
                                      "batch-size = 400\n"
                                      "seed = 7\n"
                                      "confidence = 0.95\n");
    const ScenarioConfig config = spec.configForLoad("1.5");

    ScenarioConfig expected = equalLoadScenario(6, 1.5, 2.0);
    EXPECT_EQ(config.numAgents, expected.numAgents);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i) {
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
        EXPECT_DOUBLE_EQ(config.agents[i].cv, expected.agents[i].cv);
        EXPECT_EQ(config.agents[i].maxOutstanding, 3);
    }
    EXPECT_EQ(config.numBatches, 5);
    EXPECT_EQ(config.batchSize, 400u);
    EXPECT_EQ(config.warmup, 400u); // defaults to batch-size
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.confidence, 0.95);
    EXPECT_DOUBLE_EQ(config.bus.arbitrationOverhead, 0.25);
}

TEST(ScenarioSpecConfigTest, UnequalFamilySplitsTheLoad)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = unequal\n"
                                      "agents = 8\n"
                                      "unequal-factor = 4\n");
    const ScenarioConfig config = spec.configForLoad("1.5");
    const ScenarioConfig expected =
        unequalLoadScenario(8, 1.5 / 8, 4.0, 1.0);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i)
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
}

TEST(ScenarioSpecConfigTest, WorstCaseFamilyIgnoresLoadToken)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = worst-case\n"
                                      "agents = 10\n");
    const ScenarioConfig config = spec.configForLoad("");
    const ScenarioConfig expected = worstCaseRrScenario(10, 1.0);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i)
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
}

TEST(ScenarioSpecConfigTest, WorstCaseSettleSelectsWorstCaseMode)
{
    const ScenarioSpec spec =
        parseOk("[bus]\nworst-case-settle = true\n");
    const ScenarioConfig config = spec.configForLoad("1");
    EXPECT_TRUE(config.bus.settleTiming);
    EXPECT_EQ(config.bus.settleMode, BusParams::SettleMode::kWorstCase);
}

TEST(ScenarioSpecErrorTest, ErrorsCarryLineNumbersAndHints)
{
    EXPECT_EQ(parseError("[workloads]\n"),
              "line 1: unknown section '[workloads]'; did you mean "
              "'workload'?");
    EXPECT_EQ(parseError("[workload]\nagent = 3\n"),
              "line 2: unknown key 'agent' in [workload]; did you mean "
              "'agents'?");
    EXPECT_EQ(parseError("agents = 3\n"),
              "line 1: key 'agents' outside any [section]");
    EXPECT_EQ(parseError("[workload\n"),
              "line 1: malformed section header '[workload'");
    EXPECT_EQ(parseError("[workload]\nwhat is this\n"),
              "line 2: expected 'key = value' or '[section]', got "
              "'what is this'");
}

TEST(ScenarioSpecErrorTest, ValuesAreValidated)
{
    EXPECT_EQ(parseError("[workload]\nagents = none\n"),
              "line 2: key 'agents' expects an integer, got 'none'");
    EXPECT_EQ(parseError("[workload]\nagents = 0\n"),
              "line 2: key 'agents' must be >= 1, got '0'");
    EXPECT_EQ(parseError("[workload]\ncv =\n"),
              "line 2: key 'cv' needs a value");
    EXPECT_EQ(parseError("[bus]\nsettle-timing = yes\n"),
              "line 2: key 'settle-timing' expects true/false, got "
              "'yes'");
    EXPECT_EQ(parseError("[run]\nconfidence = 1.5\n"),
              "line 2: key 'confidence' must be in (0, 1), got '1.5'");
    EXPECT_EQ(parseError("[run]\nseed = -1\n"),
              "line 2: key 'seed' expects an unsigned integer, got "
              "'-1'");
    EXPECT_EQ(parseError("[workload]\nagents = 3\nagents = 4\n"),
              "line 3: duplicate key 'agents' in [workload]");
}

TEST(ScenarioSpecErrorTest, SweepAxesAreValidated)
{
    EXPECT_EQ(parseError("[sweep]\nloads = fast\n"),
              "line 2: bad load 'fast'");
    EXPECT_EQ(parseError("[sweep]\nloads = 2:1:0.5\n"),
              "line 2: bad load range '2:1:0.5' (need step > 0 and "
              "hi >= lo)");
    EXPECT_EQ(parseError("[protocol]\nspec = rr9\n"),
              "line 2: bad protocol spec 'rr9': unknown protocol key "
              "'rr9'; did you mean 'rr1'?");
}

TEST(ScenarioSpecErrorTest, FileLevelValidationHasNoLinePrefix)
{
    EXPECT_EQ(parseError("[workload]\nfamily = unequal\n"),
              "family 'unequal' requires unequal-factor");
    EXPECT_EQ(parseError("[workload]\nfamily = worst-case\n"
                         "[sweep]\nloads = 1\n"),
              "family 'worst-case' takes no loads (the Table 4.5 "
              "workload fixes its own rates)");
}

TEST(ScenarioSpecFlagsTest, WasSetTracksExplicitFlagsOnly)
{
    ArgParser parser("prog", "test");
    addScenarioFlags(parser);
    std::vector<const char *> args{"prog", "--agents", "8"};
    ASSERT_TRUE(parser.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_TRUE(parser.wasSet("agents"));
    EXPECT_FALSE(parser.wasSet("cv"));
    EXPECT_FALSE(parser.wasSet("scenario"));
}

TEST(ScenarioSpecSourceTest, DefaultSourceIsClosedAndOmittedFromFormat)
{
    const ScenarioSpec spec = parseOk("");
    EXPECT_EQ(spec.source, "closed");
    EXPECT_TRUE(spec.sourceTakesLoads());
    // Pre-seam scenario text must format (and hence hash) identically,
    // so the default source never appears in the canonical form.
    EXPECT_EQ(spec.format().find("source"), std::string::npos);
}

TEST(ScenarioSpecSourceTest, SourceRoundTripsVerbatim)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = open:dist=mmpp,burst=4\n"
                "[sweep]\nloads = 0.5 1\nprotocols = rr1\n");
    EXPECT_EQ(spec.source, "open:dist=mmpp,burst=4");
    EXPECT_NE(spec.format().find("source = open:dist=mmpp,burst=4"),
              std::string::npos);
    const ScenarioSpec again = parseOk(spec.format());
    EXPECT_EQ(again.format(), spec.format());
}

TEST(ScenarioSpecSourceTest, BadSourceSpecsFailWithLineNumbers)
{
    EXPECT_EQ(parseError("[workload]\nsource = opne\n"),
              "line 2: bad workload source 'opne': unknown workload "
              "source key 'opne'; did you mean 'open'?");
}

TEST(ScenarioSpecSourceTest, TraceSourcesHaveNoLoadAxis)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = trace:file=x.trace\n"
                "[sweep]\nprotocols = rr1 fcfs1\n");
    EXPECT_FALSE(spec.sourceTakesLoads());
    EXPECT_EQ(spec.loadAxis(), std::vector<std::string>{"-"});
    EXPECT_EQ(spec.cellCount(), 2u);
    EXPECT_EQ(spec.cellLoadToken(0), "-");

    EXPECT_EQ(parseError("[workload]\nsource = trace:file=x.trace\n"
                         "load = 2\n"),
              "workload source 'trace:file=x.trace' takes no loads "
              "(it fixes its own arrival schedule)");
}

TEST(ScenarioSpecSourceTest, ConfigCarriesTheSpecVerbatim)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = open:rate=2\nload = 0.5\n");
    const ScenarioConfig config = spec.configForLoad("0.5");
    EXPECT_EQ(config.workloadSpec, "open:rate=2");
    EXPECT_EQ(parseOk("").configForLoad("1").workloadSpec, "closed");
}

TEST(ScenarioSpecHotMixTest, HotAgentsScaleTheirShare)
{
    const ScenarioSpec spec = parseOk("[workload]\nagents = 4\n"
                                      "hot-agents = 2\nhot-factor = 3\n"
                                      "load = 0.4\n");
    const ScenarioConfig config = spec.configForLoad("0.4");
    // Base per-agent load 0.1; hot agents offer 0.3 each.
    ASSERT_EQ(config.agents.size(), 4u);
    const double hot = config.agents[0].meanInterrequest;
    const double cold = config.agents[2].meanInterrequest;
    EXPECT_DOUBLE_EQ(config.agents[1].meanInterrequest, hot);
    EXPECT_DOUBLE_EQ(config.agents[3].meanInterrequest, cold);
    // interrequestForLoad is monotone decreasing in load, and the hot
    // agents' offered load is exactly hot-factor times the base.
    EXPECT_LT(hot, cold);
    const double s = config.bus.transactionTime;
    const double hot_load = s / (s + hot);
    const double cold_load = s / (s + cold);
    EXPECT_NEAR(hot_load, 3.0 * cold_load, 1e-9);
}

TEST(ScenarioSpecHotMixTest, RoundTripsAndValidates)
{
    const ScenarioSpec spec = parseOk("[workload]\nagents = 8\n"
                                      "hot-agents = 2\nhot-factor = 3\n"
                                      "load = 1\n");
    EXPECT_NE(spec.format().find("hot-agents = 2"), std::string::npos);
    EXPECT_NE(spec.format().find("hot-factor = 3"), std::string::npos);
    EXPECT_EQ(parseOk(spec.format()).format(), spec.format());
    // Defaults stay invisible, preserving pre-seam canonical text.
    EXPECT_EQ(parseOk("").format().find("hot-"), std::string::npos);

    EXPECT_EQ(parseError("[workload]\nhot-agents = 2\nload = 1\n"),
              "hot-agents requires hot-factor");
    EXPECT_EQ(parseError("[workload]\nhot-factor = 2\nload = 1\n"),
              "hot-factor requires hot-agents");
    EXPECT_EQ(parseError("[workload]\nagents = 4\nhot-agents = 5\n"
                         "hot-factor = 2\nload = 1\n"),
              "hot-agents exceeds agents");
    EXPECT_NE(parseError("[workload]\nfamily = unequal\n"
                         "unequal-factor = 2\nhot-agents = 1\n"
                         "hot-factor = 2\nload = 1\n")
                  .find("requires family 'equal'"),
              std::string::npos);
    EXPECT_NE(parseError("[workload]\nagents = 4\nhot-agents = 2\n"
                         "hot-factor = 8\nload = 2\n")
                  .find("pushes a hot agent's offered load"),
              std::string::npos);
}

TEST(ScenarioSpecDeathTest, OrExitDistinguishesIoFromParseErrors)
{
    EXPECT_EXIT(scenarioSpecOrExit("prog", "/nonexistent/x.scenario"),
                ::testing::ExitedWithCode(1), "prog: cannot read");

    const std::string path =
        test::uniqueTempPath("bad_spec_test", ".scenario");
    {
        std::ofstream out(path);
        out << "[workload]\nagents = none\n";
    }
    EXPECT_EXIT(scenarioSpecOrExit("prog", path),
                ::testing::ExitedWithCode(2),
                "line 2: key 'agents' expects an integer");
    std::remove(path.c_str());
}

} // namespace
} // namespace busarb
