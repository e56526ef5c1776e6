/**
 * @file
 * Unit tests for the trace-file generator and its format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/trace_file.hh"

namespace dapsim
{
namespace
{

std::vector<TraceRequest>
sampleRecords()
{
    return {
        {0x1000, false, 10},
        {0x2040, true, 5},
        {0x3000, false, 1},
    };
}

TEST(TraceFile, ParseLineReadsRecords)
{
    TraceRequest r;
    ASSERT_TRUE(TraceFileGenerator::parseLine("12 r 0x1f40", r));
    EXPECT_EQ(r.instrGap, 12u);
    EXPECT_FALSE(r.isWrite);
    EXPECT_EQ(r.addr, 0x1f40u);

    ASSERT_TRUE(TraceFileGenerator::parseLine("3 w ff80", r));
    EXPECT_TRUE(r.isWrite);
    EXPECT_EQ(r.addr, 0xff80u);
}

TEST(TraceFile, ParseLineSkipsCommentsAndBlanks)
{
    TraceRequest r;
    EXPECT_FALSE(TraceFileGenerator::parseLine("# comment", r));
    EXPECT_FALSE(TraceFileGenerator::parseLine("", r));
    EXPECT_FALSE(TraceFileGenerator::parseLine("   ", r));
    EXPECT_FALSE(TraceFileGenerator::parseLine("  # indented", r));
}

TEST(TraceFile, ZeroGapBecomesOne)
{
    TraceRequest r;
    ASSERT_TRUE(TraceFileGenerator::parseLine("0 r 0x40", r));
    EXPECT_EQ(r.instrGap, 1u);
}

TEST(TraceFileDeathTest, MalformedRecordsAreFatal)
{
    TraceRequest r;
    EXPECT_DEATH((void)TraceFileGenerator::parseLine("nonsense", r),
                 "malformed");
    EXPECT_DEATH((void)TraceFileGenerator::parseLine("5 x 0x40", r),
                 "kind");
}

TEST(TraceFileDeathTest, ErrorsNameTheOffendingLine)
{
    TraceRequest r;
    EXPECT_DEATH(
        (void)TraceFileGenerator::parseLine("nonsense", r, 7),
        "malformed record: line 7:");
    EXPECT_DEATH(
        (void)TraceFileGenerator::parseLine("5 x 0x40", r, 12),
        "kind must be 'r' or 'w': line 12:");
}

TEST(TraceFileDeathTest, FileErrorsNameTheOffendingLine)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "dapsim_badline.trace")
            .string();
    {
        std::ofstream out(path);
        out << "# header comment\n"
            << "1 r 0x40\n"
            << "garbage\n";
    }
    EXPECT_DEATH(TraceFileGenerator{path}, "malformed record: line 3:");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, BadAddressesAreFatal)
{
    TraceRequest r;
    // 17 hex digits: past the 64-bit address space.
    EXPECT_DEATH(
        (void)TraceFileGenerator::parseLine(
            "5 r 0x1ffffffffffffffff", r, 4),
        "overflows the 64-bit address space: line 4:");
    EXPECT_DEATH((void)TraceFileGenerator::parseLine("5 r -40", r),
                 "negative");
    EXPECT_DEATH((void)TraceFileGenerator::parseLine("5 r zz", r),
                 "bad hex");
}

TEST(TraceFile, ReplaysInOrderAndLoops)
{
    TraceFileGenerator g(sampleRecords());
    TraceRequest r;
    for (int loop = 0; loop < 3; ++loop) {
        g.next(r);
        EXPECT_EQ(r.addr, 0x1000u);
        g.next(r);
        EXPECT_EQ(r.addr, 0x2040u);
        EXPECT_TRUE(r.isWrite);
        g.next(r);
        EXPECT_EQ(r.addr, 0x3000u);
    }
    EXPECT_EQ(g.loops(), 3u);
    EXPECT_EQ(g.records(), 3u);
}

TEST(TraceFile, BaseOffsetsEveryAddress)
{
    TraceFileGenerator g(sampleRecords(), 0x100000000ULL);
    TraceRequest r;
    g.next(r);
    EXPECT_EQ(r.addr, 0x100001000ULL);
}

TEST(TraceFile, RoundTripsThroughDisk)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_test.trace")
            .string();
    TraceFileGenerator records(sampleRecords());
    ASSERT_EQ(writeTraceFile(path, records, 3), 3u);
    TraceFileGenerator g(path);
    EXPECT_EQ(g.records(), 3u);
    TraceRequest r;
    g.next(r);
    EXPECT_EQ(r.addr, 0x1000u);
    EXPECT_EQ(r.instrGap, 10u);
    g.next(r);
    EXPECT_TRUE(r.isWrite);
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceFileGenerator("/nonexistent/foo.trace"),
                 "cannot open");
}

TEST(TraceFileDeathTest, EmptyTraceIsFatal)
{
    EXPECT_DEATH(TraceFileGenerator(std::vector<TraceRequest>{}),
                 "no records");
}

} // namespace
} // namespace dapsim
