/**
 * @file
 * Tests for the protocol registry seam: the descriptor matrix (every
 * registered protocol instantiates, smokes through the runner, and
 * round-trips its spec text), the registry-vs-raw-class golden diff,
 * and the spec-string error paths with their did-you-mean hints.
 */

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/fcfs.hh"
#include "core/round_robin.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

/** A small, fast scenario for registry smoke runs. */
ScenarioConfig
tinyScenario()
{
    ScenarioConfig config = equalLoadScenario(6, 1.0, 1.0);
    config.numBatches = 3;
    config.batchSize = 200;
    config.warmup = 200;
    return config;
}

std::string
metricsCsv(const ScenarioResult &result)
{
    std::ostringstream os;
    result.metrics.writeCsv(os);
    return os.str();
}

std::string
parseError(const std::string &text)
{
    ProtocolSpec spec;
    std::string error;
    EXPECT_FALSE(
        ProtocolRegistry::builtin().parseSpec(text, spec, error))
        << text;
    return error;
}

ProtocolSpec
parseOk(const std::string &text)
{
    ProtocolSpec spec;
    std::string error;
    EXPECT_TRUE(ProtocolRegistry::builtin().parseSpec(text, spec, error))
        << text << ": " << error;
    return spec;
}

TEST(RegistryCatalogTest, EveryDescriptorInstantiatesWithDefaults)
{
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    ASSERT_FALSE(registry.all().empty());
    for (const auto &desc : registry.all()) {
        const ProtocolSpec spec = parseOk(desc.key);
        EXPECT_EQ(spec.key, desc.key);
        EXPECT_TRUE(spec.params.empty()) << desc.key;
        ProtocolFactory factory = registry.instantiate(spec);
        auto protocol = factory();
        ASSERT_NE(protocol, nullptr) << desc.key;
        protocol->reset(8);
        EXPECT_FALSE(protocol->name().empty()) << desc.key;
        EXPECT_FALSE(protocol->wantsPass()) << desc.key;
        protocol->reset(4); // reusable after a second reset
        EXPECT_FALSE(protocol->wantsPass()) << desc.key;
    }
}

TEST(RegistryCatalogTest, EveryDescriptorSmokesThroughRunner)
{
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    for (const auto &desc : registry.all()) {
        const auto result = runScenario(
            tinyScenario(), registry.instantiate(parseOk(desc.key)));
        EXPECT_EQ(result.batches.size(), 3u) << desc.key;
        EXPECT_FALSE(result.protocolName.empty()) << desc.key;
    }
}

TEST(RegistryCatalogTest, AllExplicitDefaultsRoundTrip)
{
    // Spell out every declared parameter at its default value; the
    // canonical spec must re-parse to itself (parse . format = id).
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    for (const auto &desc : registry.all()) {
        std::string text = desc.key;
        for (std::size_t i = 0; i < desc.params.size(); ++i) {
            text += i == 0 ? ":" : ",";
            text += desc.params[i].name + "=" +
                    desc.params[i].defaultValue;
        }
        const ProtocolSpec spec = parseOk(text);
        EXPECT_EQ(spec.params.size(), desc.params.size()) << desc.key;
        const ProtocolSpec again = parseOk(spec.format());
        EXPECT_EQ(again, spec) << desc.key;
        EXPECT_EQ(again.format(), spec.format()) << desc.key;
    }
}

TEST(RegistryCatalogTest, PrintTableListsEveryKeyAndParameter)
{
    std::ostringstream os;
    ProtocolRegistry::builtin().printTable(os);
    const std::string table = os.str();
    for (const auto &desc : ProtocolRegistry::builtin().all()) {
        EXPECT_NE(table.find(desc.key), std::string::npos) << desc.key;
        for (const auto &param : desc.params)
            EXPECT_NE(table.find(param.name), std::string::npos)
                << desc.key << ":" << param.name;
    }
    EXPECT_NE(table.find("wrr"), std::string::npos);
    EXPECT_NE(table.find("§3.1"), std::string::npos);
    EXPECT_NE(table.find("(parameterized form)"), std::string::npos);
}

TEST(RegistrySpecCanonicalTest, OptionsCanonicalizeToDeclarationOrder)
{
    EXPECT_EQ(parseOk("fcfs2:wrap,window=0.05,bits=3").format(),
              "fcfs2:bits=3,overflow=wrap,window=0.05");
    EXPECT_EQ(parseOk("rr1:rr-within-class=false,priority").format(),
              "rr1:priority=true,rr-within-class=false");
    EXPECT_EQ(parseOk("wrr:weights=4/1/1/1").format(),
              "wrr:weights=4/1/1/1");
}

TEST(RegistrySpecCanonicalTest, AliasesResolveToCanonicalName)
{
    EXPECT_EQ(parseOk("fcfs1:counter_bits=8").format(), "fcfs1:bits=8");
}

TEST(RegistrySpecCanonicalTest, FamilyAliasesExposeSameProtocols)
{
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    auto rr3 = registry.instantiate(parseOk("rr:impl=3"))();
    auto rr3_direct = registry.instantiate(parseOk("rr3"))();
    rr3->reset(8);
    rr3_direct->reset(8);
    EXPECT_EQ(rr3->name(), rr3_direct->name());

    auto fcfs2 = registry.instantiate(
        parseOk("fcfs:strategy=incr_line,counter_bits=8"))();
    auto fcfs2_direct = registry.instantiate(parseOk("fcfs2:bits=8"))();
    fcfs2->reset(8);
    fcfs2_direct->reset(8);
    EXPECT_EQ(fcfs2->name(), fcfs2_direct->name());
}

TEST(RegistryGoldenDiffTest, RrMatchesLegacyFactoryMetrics)
{
    const auto legacy = runScenario(tinyScenario(), [] {
        return std::make_unique<RoundRobinProtocol>(RrConfig{});
    });
    const auto registry = runScenario(
        tinyScenario(), ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_EQ(registry.protocolName, legacy.protocolName);
    EXPECT_EQ(metricsCsv(registry), metricsCsv(legacy));
}

TEST(RegistryGoldenDiffTest, FcfsMatchesLegacyFactoryMetrics)
{
    FcfsConfig config;
    config.strategy = FcfsStrategy::kIncrLine;
    config.counterBits = 3;
    config.overflow = OverflowPolicy::kWrap;
    config.incrWindow = 0.05;
    const auto legacy = runScenario(tinyScenario(), [config] {
        return std::make_unique<FcfsProtocol>(config);
    });
    const auto registry = runScenario(
        tinyScenario(), ProtocolRegistry::builtin().fromSpec(
                            "fcfs2:window=0.05,bits=3,wrap"));
    EXPECT_EQ(registry.protocolName, legacy.protocolName);
    EXPECT_EQ(metricsCsv(registry), metricsCsv(legacy));
}

TEST(RegistryErrorTest, UnknownKeyGetsDidYouMeanHint)
{
    EXPECT_EQ(parseError("rr9"),
              "unknown protocol key 'rr9'; did you mean 'rr1'?");
    EXPECT_EQ(parseError("fcsf1"),
              "unknown protocol key 'fcsf1'; did you mean 'fcfs1'?");
    // Nothing is close: no hint at all.
    EXPECT_EQ(parseError("completely-bogus"),
              "unknown protocol key 'completely-bogus'");
}

TEST(RegistryErrorTest, UnknownOptionGetsDidYouMeanHint)
{
    EXPECT_EQ(parseError("fcfs1:bitz=3"),
              "unknown option 'bitz' for protocol 'fcfs1'; did you mean "
              "'bits'?");
    EXPECT_EQ(parseError("rr1:priorty"),
              "unknown option 'priorty' for protocol 'rr1'; did you "
              "mean 'priority'?");
}

TEST(RegistryErrorTest, ValuesAreRangeAndTypeChecked)
{
    EXPECT_EQ(parseError("fcfs1:bits=99"),
              "option 'bits' out of range: got '99', expected [0, 32]");
    EXPECT_EQ(parseError("fcfs1:bits=many"),
              "option 'bits' expects an integer, got 'many'");
    EXPECT_EQ(parseError("fcfs1:window=never"),
              "option 'window' expects a number, got 'never'");
    EXPECT_EQ(parseError("rr1:priority=maybe"),
              "option 'priority' expects true/false, got 'maybe'");
    EXPECT_EQ(parseError("fcfs1:bits=3,bits=4"),
              "duplicate option 'bits'");
    EXPECT_EQ(parseError("fcfs1:window"),
              "option 'window' needs a value");
}

TEST(RegistryErrorTest, EnumValuesGetDidYouMeanHint)
{
    EXPECT_EQ(parseError("fcfs:strategy=incr_lines"),
              "option 'strategy' expects one of "
              "increment_on_lose|incr_line, got 'incr_lines'; did you "
              "mean 'incr_line'?");
}

TEST(RegistryErrorTest, WeightListsAreValidatedPerElement)
{
    EXPECT_EQ(parseError("wrr:weights=4/x"),
              "option 'weights' expects a '/'-separated list of "
              "integers, got '4/x'");
    EXPECT_EQ(parseError("wrr:weights=0/1"),
              "option 'weights' element out of range: got '0', "
              "expected [1, 4096]");
}

TEST(RegistryErrorTest, CrossParameterValidationRuns)
{
    EXPECT_EQ(parseError("rr:impl=2,priority"),
              "option 'priority' requires impl=1 (the rr-priority bit "
              "implementation)");
}

TEST(RegistryErrorDeathTest, FactoryOrExitUsesExitCodeTwo)
{
    EXPECT_EXIT(protocolFactoryOrExit("busarb_test", "nope"),
                ::testing::ExitedWithCode(2),
                "busarb_test: bad protocol spec 'nope': unknown "
                "protocol key");
    EXPECT_EXIT(protocolFactoryOrExit("busarb_test", "rr1:turbo"),
                ::testing::ExitedWithCode(2), "unknown option 'turbo'");
}

TEST(RegistryExtensionTest, WrrRegistersThroughItsOwnUnitAlone)
{
    // The zero-edit seam: a registry holding only the wrr registration
    // unit serves wrr specs end to end, proving nothing else needs to
    // know the protocol exists.
    ProtocolRegistry registry;
    registerWeightedRoundRobin(registry);
    ASSERT_NE(registry.find("wrr"), nullptr);
    ProtocolSpec spec;
    std::string error;
    ASSERT_TRUE(registry.parseSpec("wrr:weights=4/1", spec, error))
        << error;
    auto protocol = registry.instantiate(spec)();
    protocol->reset(2);
    EXPECT_EQ(protocol->name(), "WRR (weights 4/1)");
}

} // namespace
} // namespace busarb
