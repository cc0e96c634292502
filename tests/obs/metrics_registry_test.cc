/**
 * @file
 * Metrics registry tests: kinds, exact-mergeable gauges, prefixed
 * merges, and deterministic CSV/JSON export.
 */

#include <cstdio>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics_registry.hh"
#include "support/temp_path.hh"

namespace busarb {
namespace {

TEST(MetricsRegistry, CounterAccumulatesAndMerges)
{
    Counter a;
    a.add();
    a.add(41);
    EXPECT_EQ(a.value(), 42u);
    Counter b;
    b.add(8);
    a.merge(b);
    EXPECT_EQ(a.value(), 50u);
}

TEST(MetricsRegistry, GaugeTracksExactSummary)
{
    Gauge g;
    EXPECT_EQ(g.count(), 0u);
    EXPECT_EQ(g.mean(), 0.0);
    g.set(2.0);
    g.set(-1.0);
    g.set(5.0);
    EXPECT_EQ(g.count(), 3u);
    EXPECT_DOUBLE_EQ(g.sum(), 6.0);
    EXPECT_DOUBLE_EQ(g.min(), -1.0);
    EXPECT_DOUBLE_EQ(g.max(), 5.0);
    EXPECT_DOUBLE_EQ(g.mean(), 2.0);

    Gauge h;
    h.set(10.0);
    g.merge(h);
    EXPECT_EQ(g.count(), 4u);
    EXPECT_DOUBLE_EQ(g.max(), 10.0);
    // Merging an empty gauge changes nothing (its infinities lose).
    g.merge(Gauge{});
    EXPECT_EQ(g.count(), 4u);
    EXPECT_DOUBLE_EQ(g.min(), -1.0);
    EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST(MetricsRegistry, LooksUpByNameAndCountsMetrics)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("bus.passes").add(3);
    reg.counter("bus.passes").add(4); // same object
    reg.gauge("wait.mean").set(1.5);
    reg.histogram("wait.histogram", 0.5, 10).add(0.7);
    EXPECT_FALSE(reg.empty());
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.counter("bus.passes").value(), 7u);
}

TEST(MetricsRegistry, MergeFromAppliesPrefix)
{
    MetricsRegistry run;
    run.counter("bus.passes").add(5);
    run.gauge("wait.mean").set(2.0);
    run.histogram("wait.histogram", 0.25, 8).add(1.1);

    MetricsRegistry merged;
    merged.mergeFrom(run, "rr1.");
    merged.mergeFrom(run, "fcfs1.");

    EXPECT_EQ(merged.counter("rr1.bus.passes").value(), 5u);
    EXPECT_EQ(merged.counter("fcfs1.bus.passes").value(), 5u);
    EXPECT_EQ(merged.gauge("rr1.wait.mean").count(), 1u);
    EXPECT_EQ(merged.histogram("rr1.wait.histogram", 0.25, 8).count(),
              1u);
    EXPECT_EQ(merged.size(), 6u);
}

TEST(MetricsRegistry, UnprefixedMergeFromAccumulates)
{
    MetricsRegistry run;
    run.counter("bus.passes").add(5);
    run.gauge("wait.mean").set(2.0);

    MetricsRegistry merged;
    merged.mergeFrom(run);
    merged.mergeFrom(run); // accumulate-by-sum is fine without a prefix
    EXPECT_EQ(merged.counter("bus.passes").value(), 10u);
    EXPECT_EQ(merged.gauge("wait.mean").count(), 2u);
}

TEST(MetricsRegistry, CsvIsSortedByNameAcrossKinds)
{
    MetricsRegistry reg;
    reg.gauge("b.gauge").set(1.0);
    reg.counter("c.counter").add(2);
    reg.histogram("a.hist", 1.0, 4).add(0.5);

    std::ostringstream os;
    reg.writeCsv(os);
    const std::string csv = os.str();
    const auto header = csv.find("name,kind,count,sum,min,max,p50,p90,p99");
    const auto a = csv.find("a.hist,histogram,");
    const auto b = csv.find("b.gauge,gauge,");
    const auto c = csv.find("c.counter,counter,2,");
    ASSERT_NE(header, std::string::npos);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(header, a);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
}

TEST(MetricsRegistry, EmptyGaugeExportsWithoutInfinities)
{
    MetricsRegistry reg;
    reg.gauge("never.set");
    std::ostringstream csv;
    reg.writeCsv(csv);
    EXPECT_EQ(csv.str().find("inf"), std::string::npos);

    std::ostringstream json;
    reg.writeJson(json);
    EXPECT_EQ(json.str().find("inf"), std::string::npos);
    EXPECT_NE(json.str().find("\"min\": null"), std::string::npos);
}

TEST(MetricsRegistry, JsonCarriesSparseHistogramBins)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("w", 1.0, 8);
    h.add(0.5); // bin 0
    h.add(3.5); // bin 3
    h.add(3.6); // bin 3

    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
    EXPECT_NE(json.find("[0, 1], [3, 2]"), std::string::npos);
}

TEST(MetricsRegistry, WriteFilePicksFormatByExtension)
{
    MetricsRegistry reg;
    reg.counter("x").add(1);

    const std::string csv_path =
        test::uniqueTempPath("busarb_metrics_test", ".csv");
    const std::string json_path =
        test::uniqueTempPath("busarb_metrics_test", ".json");
    ASSERT_TRUE(reg.writeFile(csv_path));
    ASSERT_TRUE(reg.writeFile(json_path));

    std::ifstream csv(csv_path);
    std::string first_line;
    ASSERT_TRUE(std::getline(csv, first_line));
    EXPECT_EQ(first_line,
              "name,kind,count,sum,min,max,p50,p90,p99,value");

    std::ifstream json(json_path);
    char ch = 0;
    ASSERT_TRUE(json.get(ch));
    EXPECT_EQ(ch, '{');

    std::remove(csv_path.c_str());
    std::remove(json_path.c_str());

    EXPECT_FALSE(
        reg.writeFile(::testing::TempDir() + "no/such/dir/out.csv"));
}

TEST(MetricsRegistry, GaugeMergeSummaryFoldsPreAggregatedSamples)
{
    Gauge g;
    g.set(2.0);
    g.mergeSummary(3, 12.0, 1.0, 8.0);
    EXPECT_EQ(g.count(), 4u);
    EXPECT_DOUBLE_EQ(g.sum(), 14.0);
    EXPECT_DOUBLE_EQ(g.min(), 1.0);
    EXPECT_DOUBLE_EQ(g.max(), 8.0);
}

TEST(MetricsRegistry, JsonEscapesHostileMetricNames)
{
    MetricsRegistry reg;
    reg.counter("run=\"x\"\\path\n.b\x01" "el").add(1);
    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("run=\\\"x\\\"\\\\path\\n.b\\u0001el"),
              std::string::npos)
        << json;
    // The raw control characters must never reach the output.
    EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(MetricsRegistry, CsvQuotesFieldsWithSeparators)
{
    MetricsRegistry reg;
    reg.counter("load=0,5.passes").add(3);
    std::ostringstream os;
    reg.writeCsv(os);
    EXPECT_NE(os.str().find("\"load=0,5.passes\",counter,3"),
              std::string::npos)
        << os.str();
}

TEST(MetricsRegistry, NumbersExportLocaleIndependently)
{
    // A stream whose locale renders 2.5 as "2,5" (comma decimal point,
    // digit grouping) must not corrupt exports; every number goes
    // through std::to_chars, bypassing iostream formatting entirely.
    struct CommaPunct : std::numpunct<char>
    {
        char do_decimal_point() const override { return ','; }
        char do_thousands_sep() const override { return '.'; }
        std::string do_grouping() const override { return "\3"; }
    };
    MetricsRegistry reg;
    reg.gauge("wait.mean").set(2.5);
    reg.counter("bus.passes").add(1234567);
    std::ostringstream csv, json;
    csv.imbue(std::locale(csv.getloc(), new CommaPunct));
    json.imbue(std::locale(json.getloc(), new CommaPunct));
    reg.writeCsv(csv);
    reg.writeJson(json);
    EXPECT_NE(csv.str().find("wait.mean,gauge,1,2.5,2.5,2.5"),
              std::string::npos)
        << csv.str();
    EXPECT_NE(csv.str().find("bus.passes,counter,1234567"),
              std::string::npos)
        << csv.str();
    EXPECT_NE(json.str().find("\"sum\": 2.5"), std::string::npos);
    EXPECT_NE(json.str().find("\"value\": 1234567"), std::string::npos);
    // Shortest round-trip formatting: no trailing zero padding.
    EXPECT_EQ(json.str().find("2.50"), std::string::npos);
}

TEST(MetricsRegistryDeathTest, KindConflictPanics)
{
    MetricsRegistry reg;
    reg.counter("bus.passes").add(1);
    EXPECT_DEATH(reg.gauge("bus.passes"),
                 "metric 'bus.passes' redefined as a gauge");
}

TEST(MetricsRegistryDeathTest, DuplicatePrefixedMergePanics)
{
    MetricsRegistry run;
    run.counter("bus.passes").add(5);

    MetricsRegistry merged;
    merged.mergeFrom(run, "rr1.");
    // Merging the same run twice under one prefix would silently sum
    // two runs into one metric; the diagnostic names the collision.
    EXPECT_DEATH(merged.mergeFrom(run, "rr1."),
                 "metric 'rr1.bus.passes' already exists; duplicate "
                 "merge under prefix 'rr1.'");
}

TEST(MetricsRegistryDeathTest, PrefixedMergeOntoPlainNamePanics)
{
    MetricsRegistry run;
    run.counter("passes").add(5);

    MetricsRegistry merged;
    merged.counter("rr1.passes").add(1);
    EXPECT_DEATH(merged.mergeFrom(run, "rr1."),
                 "metric 'rr1.passes' already exists");
}

} // namespace
} // namespace busarb
