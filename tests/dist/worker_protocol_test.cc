/**
 * @file
 * Shard task file and worker run-loop tests. The end-to-end case is
 * the keystone: a worker run through the public entry point must
 * checkpoint results whose encoded bytes equal an in-process
 * runScenarioGrid of the same cells — the byte-identity the sharded
 * merge rests on.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "dist/shard_plan.hh"
#include "dist/worker_protocol.hh"
#include "experiment/runner.hh"
#include "experiment/sweep_cells.hh"

namespace busarb {
namespace {

/** A grid small enough to simulate in milliseconds: 2 x 2 cells. */
ScenarioSpec
tinySpec()
{
    ScenarioSpec spec;
    spec.agents = 4;
    spec.batches = 2;
    spec.batchSize = 50;
    spec.loadTokens = {"0.5", "1"};
    spec.protocolSpecs = {"rr1", "fcfs1"};
    return spec;
}

SweepTuning
richTuning()
{
    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.fairness = true;
    tuning.fairnessWindow = 25.0;
    tuning.bypassBound = 3;
    tuning.health = true;
    tuning.healthRelHw = 0.125;
    tuning.healthLag1 = 0.5;
    tuning.snapshotEvery = 10.0;
    tuning.healthSnapshots = true;
    return tuning;
}

TEST(ShardFile, RenderParseRoundTrip)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning = richTuning();
    const std::string scenario = spec.format();
    const std::uint64_t fp =
        sweepFingerprint(scenario, tuning.canonicalKey());

    const std::string text =
        renderShardFile(fp, 3, 1, 4, scenario, tuning);
    ShardTask task;
    std::string error;
    ASSERT_TRUE(parseShardFile(text, task, error)) << error;
    EXPECT_EQ(task.fingerprint, fp);
    EXPECT_EQ(task.shard, 3u);
    EXPECT_EQ(task.begin, 1u);
    EXPECT_EQ(task.end, 4u);
    EXPECT_EQ(task.spec.format(), scenario);
    EXPECT_EQ(task.tuning.canonicalKey(), tuning.canonicalKey());
}

TEST(ShardFile, RejectsFingerprintMismatch)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning; // defaults != richTuning
    const std::string text = renderShardFile(
        0xdeadbeefdeadbeefULL, 0, 0, 4, spec.format(), tuning);
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(ShardFile, RejectsVersionMismatch)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    std::string text = renderShardFile(
        sweepFingerprint(spec.format(), tuning.canonicalKey()), 0, 0, 4,
        spec.format(), tuning);
    const std::string header =
        "busarb-shard v" + std::to_string(kShardFileVersion);
    ASSERT_EQ(text.rfind(header, 0), 0u);
    text.replace(0, header.size(), "busarb-shard v9");
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
}

TEST(ShardFile, RejectsV1FileWithQueueLine)
{
    // The v1 layout, queue line included, as an older coordinator
    // wrote it; the coordinator rewrites task files on every run, so
    // only a stale hand-run worker can meet one.
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    const std::uint64_t fp =
        sweepFingerprint(spec.format(), tuning.canonicalKey());
    const std::string text = "busarb-shard v1\nfingerprint " +
                             fingerprintHex(fp) +
                             "\nshard 0\nbegin 0\nend 4\n"
                             "queue calendar\ntuning " +
                             tuning.canonicalKey() + "\nscenario\n" +
                             spec.format();
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
    EXPECT_NE(error.find("busarb-shard v2"), std::string::npos) << error;
}

TEST(ShardFile, RejectsNonFiniteTuningValue)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    std::string text = renderShardFile(
        sweepFingerprint(spec.format(), tuning.canonicalKey()), 0, 0, 4,
        spec.format(), tuning);
    const std::size_t at = text.find("fairness-window=50");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 18, "fairness-window=nan");
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
    EXPECT_NE(error.find("fairness-window"), std::string::npos) << error;
}

TEST(ShardFile, RejectsBadCellRange)
{
    const ScenarioSpec spec = tinySpec(); // 4 cells
    const SweepTuning tuning;
    const std::uint64_t fp =
        sweepFingerprint(spec.format(), tuning.canonicalKey());
    ShardTask task;
    std::string error;
    // begin == end (empty shard).
    EXPECT_FALSE(parseShardFile(
        renderShardFile(fp, 0, 2, 2, spec.format(), tuning), task,
        error));
    // end beyond the grid.
    EXPECT_FALSE(parseShardFile(
        renderShardFile(fp, 0, 0, 5, spec.format(), tuning), task,
        error));
}

TEST(TuningKey, ParseRoundTripProperty)
{
    for (const SweepTuning &t : {SweepTuning{}, richTuning()}) {
        SweepTuning parsed;
        std::string error;
        ASSERT_TRUE(parseTuningKey(t.canonicalKey(), parsed, error))
            << error;
        EXPECT_EQ(parsed.canonicalKey(), t.canonicalKey());
    }
}

TEST(TuningKey, RejectsMalformedKeys)
{
    SweepTuning parsed;
    std::string error;
    EXPECT_FALSE(parseTuningKey("", parsed, error));
    EXPECT_FALSE(parseTuningKey("trace=1", parsed, error)); // missing
    const std::string key = SweepTuning{}.canonicalKey();
    EXPECT_FALSE(parseTuningKey(key + ";mystery=1", parsed, error));
    std::string bad = key;
    bad.replace(bad.find("trace=0"), 7, "trace=2");
    EXPECT_FALSE(parseTuningKey(bad, parsed, error));
}

class WorkerShardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "worker_shard_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        ::mkdir(dir_.c_str(), 0755);
        std::remove(shardFilePath(dir_, 0).c_str());
        std::remove(shardManifestPath(dir_, 0).c_str());
    }

    void
    TearDown() override
    {
        std::remove(shardFilePath(dir_, 0).c_str());
        std::remove(shardManifestPath(dir_, 0).c_str());
        ::rmdir(dir_.c_str());
    }

    /** Write the shard-0 task file covering cells [0, cells). */
    void
    writeTask(const ScenarioSpec &spec, const SweepTuning &tuning)
    {
        const std::string scenario = spec.format();
        fingerprint_ =
            sweepFingerprint(scenario, tuning.canonicalKey());
        std::ofstream out(shardFilePath(dir_, 0), std::ios::binary);
        out << renderShardFile(fingerprint_, 0, 0, spec.cellCount(),
                               scenario, tuning);
        ASSERT_TRUE(out.good());
    }

    std::string
    fileBytes(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    std::string dir_;
    std::uint64_t fingerprint_ = 0;
};

/**
 * Compare a checkpointed cell record against a reference result,
 * bit-exact except for elapsedMs: per-cell wall-clock timing is host
 * noise by design (it feeds only the non-deterministic timing CSV),
 * so it is normalized away before the byte comparison.
 */
void
expectCellMatches(const std::vector<std::uint8_t> &record,
                  const ScenarioResult &reference, std::size_t cell)
{
    ScenarioResult decoded;
    std::string error;
    ASSERT_TRUE(decodeScenarioResult(record.data(), record.size(),
                                     decoded, error))
        << "cell " << cell << ": " << error;
    decoded.elapsedMs = reference.elapsedMs;
    EXPECT_EQ(encodeScenarioResult(decoded),
              encodeScenarioResult(reference))
        << "cell " << cell << " diverged from the in-process run";
}

TEST_F(WorkerShardTest, ProducesBytesIdenticalToInProcessRun)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning = richTuning();
    writeTask(spec, tuning);

    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);

    const ManifestHeader header{fingerprint_, 0, 0, spec.cellCount()};
    ManifestContents contents;
    std::string error;
    ASSERT_EQ(readManifest(shardManifestPath(dir_, 0), header,
                           contents, error),
              ManifestReadStatus::kOk)
        << error;
    ASSERT_EQ(contents.cells.size(), spec.cellCount());

    const auto reference = runScenarioGrid(
        buildSweepGrid(spec, tuning, "worker_test"), 1);
    ASSERT_EQ(reference.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < reference.size(); ++cell)
        expectCellMatches(contents.cells.at(cell), reference[cell],
                          cell);
}

TEST_F(WorkerShardTest, ResumeSkipsCheckpointedCellsAndIsIdempotent)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    writeTask(spec, tuning);

    // Pre-checkpoint cells 0 and 2 from an in-process run, as if a
    // previous worker died after finishing them.
    const auto reference = runScenarioGrid(
        buildSweepGrid(spec, tuning, "worker_test"), 1);
    const ManifestHeader header{fingerprint_, 0, 0, spec.cellCount()};
    {
        ManifestWriter writer;
        std::string error;
        ASSERT_TRUE(writer.open(shardManifestPath(dir_, 0), header, 0,
                                error))
            << error;
        ASSERT_TRUE(writer.appendCell(
            0, encodeScenarioResult(reference[0]), error));
        ASSERT_TRUE(writer.appendCell(
            2, encodeScenarioResult(reference[2]), error));
    }

    ASSERT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);
    ManifestContents contents;
    std::string error;
    ASSERT_EQ(readManifest(shardManifestPath(dir_, 0), header,
                           contents, error),
              ManifestReadStatus::kOk)
        << error;
    ASSERT_EQ(contents.cells.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < reference.size(); ++cell)
        expectCellMatches(contents.cells.at(cell), reference[cell],
                          cell);

    // A second run over the complete manifest must be a no-op: exit 0
    // and byte-identical manifest.
    const std::string before = fileBytes(shardManifestPath(dir_, 0));
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);
    EXPECT_EQ(fileBytes(shardManifestPath(dir_, 0)), before);
}

TEST_F(WorkerShardTest, MissingTaskFileIsIoError)
{
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              1);
}

TEST_F(WorkerShardTest, MalformedTaskFileIsUsageError)
{
    {
        std::ofstream out(shardFilePath(dir_, 0), std::ios::binary);
        out << "busarb-shard v" << kShardFileVersion
            << "\nfingerprint nothex\n";
    }
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              2);
}

TEST_F(WorkerShardTest, CorruptManifestIsUsageError)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    writeTask(spec, tuning);
    {
        std::ofstream out(shardManifestPath(dir_, 0),
                          std::ios::binary);
        out << "{\"kind\":\"busarb-shard-manifest\",\"version\":9}\n";
    }
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              2);
}

} // namespace
} // namespace busarb
