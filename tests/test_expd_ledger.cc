/**
 * @file
 * Tests for the `dapsim.expq.v1` ledger layer: record CRC sealing,
 * torn-tail vs mid-ledger corruption handling, GridOptions JSON
 * round-trip, and the stability/sensitivity of content-hash job ids.
 */

#include <gtest/gtest.h>

#include "expd/cli_options.hh"
#include "expd/ledger.hh"
#include "expd/store.hh"

namespace dapsim
{
namespace
{

expd::GridOptions
tinyGrid()
{
    expd::GridOptions opt;
    opt.archs = {"sectored"};
    opt.policies = {"baseline", "dap"};
    opt.workloads = {"mcf"};
    opt.capacitiesMb = {2};
    opt.cores = 4;
    opt.instr = 2'000;
    opt.warmup = 2'000;
    return opt;
}

TEST(ExpqLedger, SealedRecordRoundTrips)
{
    const std::string rec = expd::startRecord(7, "w1");
    ASSERT_EQ(rec.back(), '\n');
    const json::Value v =
        expd::parseRecord(rec.substr(0, rec.size() - 1));
    EXPECT_EQ(v.at("type").asString(), "start");
    EXPECT_EQ(v.at("index").asU64(), 7u);
    EXPECT_EQ(v.at("worker").asString(), "w1");
}

TEST(ExpqLedger, TamperedRecordFailsCrc)
{
    std::string rec = expd::startRecord(7, "w1");
    rec.pop_back(); // newline
    // Flip a payload byte: the index digit.
    const std::size_t at = rec.find("\"index\":7");
    ASSERT_NE(at, std::string::npos);
    std::string tampered = rec;
    tampered[at + 8] = '8';
    EXPECT_THROW(expd::parseRecord(tampered), expd::StoreError);
    // The embedded-row marker text inside a string value must not
    // confuse the seal locator.
    const std::string tricky = expd::doneRecord(
        0, "w", "{\"schema\":\"x\",\"crc\":\"deadbeef\"}");
    const json::Value v =
        expd::parseRecord(tricky.substr(0, tricky.size() - 1));
    EXPECT_EQ(v.at("row").asString(),
              "{\"schema\":\"x\",\"crc\":\"deadbeef\"}");
}

TEST(ExpqLedger, TornTailIsDroppedNotFatal)
{
    const std::string good = expd::startRecord(0, "w");
    const std::string torn =
        expd::doneRecord(1, "w", "{\"schema\":\"r\"}");
    // Simulate a SIGKILL mid-write: only half the final record made
    // it to disk.
    const std::string text = good + torn.substr(0, torn.size() / 2);
    const expd::LedgerContents out =
        expd::readLedgerText(text, "test");
    EXPECT_TRUE(out.droppedTornTail);
    ASSERT_EQ(out.records.size(), 1u);
    EXPECT_EQ(out.records[0].at("type").asString(), "start");
}

TEST(ExpqLedger, MidLedgerCorruptionThrows)
{
    std::string first = expd::startRecord(0, "w");
    const std::string second = expd::startRecord(1, "w");
    // Corrupt a byte of the FIRST record while a valid record
    // follows: that is real corruption, not a crash artifact.
    first[first.find("w\"")] = 'x';
    EXPECT_THROW(expd::readLedgerText(first + second, "test"),
                 expd::StoreError);
}

TEST(ExpqLedger, EmptyAndMissingLedgersAreEmpty)
{
    EXPECT_TRUE(expd::readLedgerText("", "test").records.empty());
    const expd::LedgerContents missing =
        expd::readLedgerFile("/nonexistent/dir/none.jsonl");
    EXPECT_TRUE(missing.records.empty());
    EXPECT_FALSE(missing.droppedTornTail);
}

TEST(ExpqLedger, GridOptionsRoundTripThroughJson)
{
    expd::GridOptions opt = tinyGrid();
    opt.archs = {"sectored", "alloy"};
    opt.workloads = {"mcf", "zipf:skew=0.99,fp=1M"};
    opt.capacitiesMb = {0, 64};
    opt.seed = 42;
    opt.remote = true;
    opt.remoteScale = 8.0;
    opt.remoteLatencyNs = 240.0;
    opt.remoteOutstanding = 16;

    const std::string text = expd::encodeGridOptions(opt);
    const expd::GridOptions back =
        expd::decodeGridOptions(json::parse(text));
    // A canonical encoding round-trips to identical text.
    EXPECT_EQ(expd::encodeGridOptions(back), text);
    EXPECT_EQ(back.archs, opt.archs);
    EXPECT_EQ(back.workloads, opt.workloads);
    EXPECT_EQ(back.capacitiesMb, opt.capacitiesMb);
    EXPECT_EQ(back.seed, 42u);
    EXPECT_EQ(back.remote, true);
    EXPECT_EQ(back.remoteOutstanding, 16u);
}

TEST(ExpqLedger, GridExpansionIsDeterministic)
{
    const auto a = expd::expandGrid(tinyGrid());
    const auto b = expd::expandGrid(tinyGrid());
    ASSERT_EQ(a.size(), 2u); // 1 arch x 1 cap x 1 workload x 2 policies
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].group, b[i].group);
    }
    // Both policies share one warmup group but have distinct ids.
    EXPECT_EQ(a[0].group, a[1].group);
    EXPECT_FALSE(a[0].group.empty());
    EXPECT_NE(a[0].id, a[1].id);
}

TEST(ExpqLedger, JobIdIsSensitiveToResultDeterminingFields)
{
    const std::string base = expd::expandGrid(tinyGrid())[0].id;

    expd::GridOptions seeded = tinyGrid();
    seeded.seed = 1;
    EXPECT_NE(expd::expandGrid(seeded)[0].id, base);

    expd::GridOptions shorter = tinyGrid();
    shorter.instr = 1'000;
    EXPECT_NE(expd::expandGrid(shorter)[0].id, base);

    expd::GridOptions bigger = tinyGrid();
    bigger.capacitiesMb = {4};
    EXPECT_NE(expd::expandGrid(bigger)[0].id, base);

    expd::GridOptions warmer = tinyGrid();
    warmer.warmup = 4'000;
    EXPECT_NE(expd::expandGrid(warmer)[0].id, base);
}

TEST(ExpqLedger, JobIdIgnoresObservabilityDecoration)
{
    auto jobs = expd::expandGrid(tinyGrid());
    exp::JobSpec decorated = jobs[0].spec;
    decorated.cfg.obs.sampleEvery = 1'000;
    decorated.cfg.obs.sampleOut = "/tmp/somewhere.jsonl";
    decorated.cfg.obs.dapTrace = "/tmp/trace.jsonl";
    EXPECT_EQ(exp::jobId(decorated), jobs[0].id);
}

TEST(ExpqLedger, WorkloadListSplitsSpecContinuations)
{
    const auto parts =
        expd::parseOptions(expd::kSweep,
                           {"--workload", "mcf,zipf:skew=0.99,fp=64M,flood"})
            .grid.workloads;
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "mcf");
    EXPECT_EQ(parts[1], "zipf:skew=0.99,fp=64M");
    EXPECT_EQ(parts[2], "flood");
}

} // namespace
} // namespace dapsim
