/**
 * @file
 * Tests for the command-line front door (expd/cli_options.hh): each
 * tool's flag set, the per-tool meaning of shared flag names, typed
 * errors for every malformed value, the job ids of the CI grids, and
 * the manifest coding the option table generates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

#include "expd/cli_options.hh"

namespace dapsim
{
namespace
{

using Args = std::vector<std::string>;

expd::CliOptions
parse(expd::Tool tool, const Args &args)
{
    return expd::parseOptions(tool, args);
}

/** The flag names @p tool's usage text lists, sorted. */
std::vector<std::string>
usageFlags(expd::Tool tool)
{
    std::vector<std::string> out;
    std::istringstream in(expd::usage(tool));
    const std::regex row("  (--[a-z-]+).*");
    std::smatch m;
    for (std::string line; std::getline(in, line);)
        if (std::regex_match(line, m, row))
            out.push_back(m[1]);
    std::sort(out.begin(), out.end());
    return out;
}

/** Flag names each tool accepted before the option table (sorted). */
const std::vector<std::string> kDapsimFlags = {
    "--arch", "--capacity-mb", "--chrome-trace", "--cores",
    "--dap-trace", "--efficiency", "--fidelity",
    "--fidelity-detail", "--fidelity-period", "--instr", "--list",
    "--policy", "--remote", "--remote-latency-ns", "--remote-outstanding",
    "--remote-scale", "--restore-ckpt", "--sample-every",
    "--sample-format", "--sample-out", "--save-ckpt", "--seed", "--stats",
    "--trace", "--window", "--workload"};
const std::vector<std::string> kSweepFlags = {
    "--arch", "--capacity-mb", "--chrome-trace", "--ckpt-dir", "--cores",
    "--dap-trace", "--dry-run", "--fidelity", "--fidelity-detail",
    "--fidelity-period", "--instr", "--jobs", "--json", "--list",
    "--obs-dir", "--phase-trace", "--policy", "--quiet", "--remote",
    "--remote-latency-ns", "--remote-outstanding", "--remote-scale",
    "--sample-every", "--sample-format", "--seed", "--store", "--warmup",
    "--warmup-fork", "--workload"};
const std::vector<std::string> kExpdFlags = {
    "--arch", "--capacity-mb", "--cores", "--fidelity",
    "--fidelity-detail", "--fidelity-period", "--id", "--instr", "--jobs",
    "--lease-ttl", "--out", "--policy", "--progress", "--remote",
    "--remote-latency-ns", "--remote-outstanding", "--remote-scale",
    "--seed", "--shard", "--store", "--warmup", "--workload"};

/** A command line that sets @p flag to a valid value. */
Args
validArgs(expd::Tool tool, const std::string &flag)
{
    static const std::map<std::string, std::string> values = {
        {"--arch", "sectored"},  {"--policy", "dap"},
        {"--workload", "mcf"},   {"--sample-format", "csv"},
        {"--shard", "0/2"},
        {"--fidelity", "sampled"}};
    static const std::set<std::string> switches = {
        "--remote", "--stats", "--list", "--dry-run", "--warmup-fork",
        "--quiet", "--progress"};
    if (switches.count(flag) ||
        (tool == expd::kSweep &&
         (flag == "--dap-trace" || flag == "--chrome-trace")))
        return {flag};
    const auto it = values.find(flag);
    return {flag, it == values.end() ? "1" : it->second};
}

TEST(CliOptions, EachToolKeepsItsFlagSet)
{
    const std::pair<expd::Tool, const std::vector<std::string> *> tools[] =
        {{expd::kDapsim, &kDapsimFlags},
         {expd::kSweep, &kSweepFlags},
         {expd::kExpd, &kExpdFlags}};
    EXPECT_EQ(kDapsimFlags.size(), 26u);
    EXPECT_EQ(kSweepFlags.size(), 29u);
    EXPECT_EQ(kExpdFlags.size(), 22u);
    for (const auto &[tool, flags] : tools) {
        EXPECT_EQ(usageFlags(tool), *flags);
        for (const std::string &flag : *flags)
            EXPECT_NO_THROW(parse(tool, validArgs(tool, flag))) << flag;
    }
}

TEST(CliOptions, SharedNamesKeepTheirPerToolMeaning)
{
    EXPECT_EQ(parse(expd::kSweep, {"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(parse(expd::kExpd, {"--jobs", "4"}).worker.maxJobs, 4u);
    EXPECT_EQ(parse(expd::kSweep, {"--store", "q"}).submitStore, "q");
    EXPECT_EQ(parse(expd::kExpd, {"--store", "q"}).worker.storeDir, "q");

    const expd::CliOptions d = parse(
        expd::kDapsim, {"--dap-trace", "d.jsonl", "--chrome-trace", "t.json"});
    EXPECT_EQ(d.dapTraceFile, "d.jsonl");
    EXPECT_EQ(d.chromeTraceFile, "t.json");
    const expd::CliOptions s =
        parse(expd::kSweep, {"--dap-trace", "--chrome-trace"});
    EXPECT_TRUE(s.dapTrace);
    EXPECT_TRUE(s.chromeTrace);

    const expd::CliOptions w = parse(
        expd::kExpd, {"--shard", "1/3", "--lease-ttl", "2.5", "--id", "a"});
    EXPECT_EQ(w.worker.shardIndex, 1u);
    EXPECT_EQ(w.worker.shardCount, 3u);
    EXPECT_DOUBLE_EQ(w.worker.leaseTtlSec, 2.5);
    EXPECT_EQ(w.worker.workerId, "a");
}

TEST(CliOptions, DapsimDefaultsDifferFromGridDefaults)
{
    const expd::CliOptions d = parse(expd::kDapsim, {});
    EXPECT_EQ(d.grid.policies, Args{"baseline"});
    EXPECT_EQ(d.grid.workloads, Args{"mcf"});
    const expd::CliOptions s = parse(expd::kSweep, {});
    EXPECT_EQ(s.grid.policies, (Args{"baseline", "dap"}));
    EXPECT_EQ(s.grid.workloads, Args{"sensitive"});
}

/** @p args must raise an OptionError naming @p flag and @p text. */
void
expectRejected(expd::Tool tool, const Args &args, const std::string &flag,
               const std::string &text)
{
    try {
        parse(tool, args);
        ADD_FAILURE() << "accepted " << flag << " '" << text << "'";
    } catch (const expd::OptionError &e) {
        EXPECT_EQ(e.flag, flag);
        const std::string what = e.what();
        EXPECT_NE(what.find(flag), std::string::npos) << what;
        EXPECT_NE(what.find("'" + text + "'"), std::string::npos) << what;
    }
}

TEST(CliOptions, MalformedNumbersRaiseTypedErrors)
{
    const std::pair<expd::Tool, std::vector<std::string>> integers[] = {
        {expd::kDapsim,
         {"--cores", "--instr", "--seed", "--window", "--fidelity-detail",
          "--fidelity-period", "--remote-outstanding", "--sample-every",
          "--capacity-mb"}},
        {expd::kSweep,
         {"--cores", "--instr", "--seed", "--warmup", "--jobs",
          "--sample-every", "--capacity-mb"}},
        {expd::kExpd, {"--warmup", "--jobs", "--capacity-mb"}}};
    for (const auto &[tool, flags] : integers)
        for (const std::string &flag : flags)
            for (const char *bad : {"", "abc", "12abc", "1e6", "-5", "+5",
                                    " 5", "18446744073709551616"})
                expectRejected(tool, {flag, bad}, flag, bad);
    for (const char *flag : {"--cores", "--remote-outstanding"})
        expectRejected(expd::kSweep, {flag, "4294967296"}, flag,
                       "4294967296");

    const std::pair<expd::Tool, const char *> reals[] = {
        {expd::kDapsim, "--efficiency"},
        {expd::kDapsim, "--remote-scale"},
        {expd::kSweep, "--remote-latency-ns"},
        {expd::kExpd, "--lease-ttl"}};
    for (const auto &[tool, flag] : reals)
        for (const char *bad : {"nan", "inf", "4x", "", " 1", "0x10"})
            expectRejected(tool, {flag, bad}, flag, bad);
}

TEST(CliOptions, MalformedCommandLinesRaiseTypedErrors)
{
    expectRejected(expd::kDapsim, {"--arch", "sectored,alloy"}, "--arch",
                   "sectored,alloy");
    expectRejected(expd::kDapsim, {"--policy", "baseline,dap"},
                   "--policy", "baseline,dap");
    expectRejected(expd::kDapsim, {"--capacity-mb", "32,64"},
                   "--capacity-mb", "32,64");
    expectRejected(expd::kSweep, {"--arch", ","}, "--arch", ",");
    expectRejected(expd::kSweep, {"--workload", "t1=x"}, "--workload",
                   "t1=x");
    expectRejected(expd::kDapsim, {"--sample-format", "xml"},
                   "--sample-format", "xml");
    expectRejected(expd::kSweep, {"--sample-format", "jsonl|csv"},
                   "--sample-format", "jsonl|csv");
    for (const char *shard : {"1", "2/2", "a/2", "0/", "/2", "0/0"})
        expectRejected(expd::kExpd, {"--shard", shard}, "--shard", shard);

    // Missing values and unknown flags, including a name another tool
    // accepts.
    for (const auto &[tool, args, flag] :
         std::vector<std::tuple<expd::Tool, Args, std::string>>{
             {expd::kDapsim, {"--instr"}, "--instr"},
             {expd::kExpd, {"--store"}, "--store"},
             {expd::kDapsim, {"--bogus"}, "--bogus"},
             {expd::kDapsim, {"--warmup", "10"}, "--warmup"},
             {expd::kSweep, {"--arch", "alloy", "5"}, "5"},
             {expd::kExpd, {"--list"}, "--list"}}) {
        try {
            parse(tool, args);
            ADD_FAILURE() << "accepted " << flag;
        } catch (const expd::OptionError &e) {
            EXPECT_EQ(e.flag, flag);
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos);
        }
    }
}

TEST(CliOptions, ValuesParseExactly)
{
    const expd::CliOptions o = parse(
        expd::kSweep,
        {"--instr", "18446744073709551615", "--cores", "4294967295",
         "--remote-scale", ".5", "--remote-latency-ns", "1e-9",
         "--capacity-mb", "007,64", "--workload",
         "mcf,mix:t0=zipf:skew=0.99,t0.cores=4,t1=flood,hpcg"});
    EXPECT_EQ(o.grid.instr, 18446744073709551615u);
    EXPECT_EQ(o.grid.cores, 4294967295u);
    EXPECT_EQ(o.grid.remoteScale, 0.5);
    EXPECT_EQ(o.grid.remoteLatencyNs, 1e-9);
    EXPECT_EQ(o.grid.capacitiesMb, (std::vector<std::uint64_t>{7, 64}));
    EXPECT_EQ(o.grid.workloads,
              (Args{"mcf", "mix:t0=zipf:skew=0.99,t0.cores=4,t1=flood",
                    "hpcg"}));
    // A later occurrence overrides an earlier one.
    EXPECT_EQ(parse(expd::kDapsim, {"--seed", "1", "--seed", "2"}).grid.seed,
              2u);
}

/** The `index id group label` lines dapsim_sweep --dry-run prints. */
std::string
dryRun(const Args &args)
{
    std::string out;
    const auto jobs = expd::expandGrid(parse(expd::kSweep, args).grid);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out += std::to_string(i) + " " + jobs[i].id + " " + jobs[i].group +
               " " + jobs[i].spec.displayLabel() + "\n";
    return out;
}

TEST(CliOptions, CiGridsKeepTheirJobIds)
{
    // The grids of .github/workflows/ci.yml, with the ids and groups the
    // hand-written parser's --dry-run printed.
    EXPECT_EQ(
        dryRun({"--arch", "sectored,alloy,edram", "--workload",
                "mcf,wburst:duty=0.6", "--policy", "baseline,dap", "--instr",
                "3000", "--warmup", "2000", "--quiet"}),
        "0 bc99b99eb75863ef 92fd3f63e159a774 mcf-rate8/baseline\n"
        "1 9ea5c414caa68c25 92fd3f63e159a774 mcf-rate8/dap\n"
        "2 002b137619c7402b 0bd047d936358a24 wburst:duty=0.6/baseline\n"
        "3 67d2fb6e7fda6cf7 0bd047d936358a24 wburst:duty=0.6/dap\n"
        "4 f98be70856546be5 41125e54d6bbc13c mcf-rate8/baseline\n"
        "5 1cd9593881cb4839 41125e54d6bbc13c mcf-rate8/dap\n"
        "6 da25eff02786ab45 d4fdbd8991dbde3c wburst:duty=0.6/baseline\n"
        "7 c2a23303d3511413 d4fdbd8991dbde3c wburst:duty=0.6/dap\n"
        "8 760e796675c60b74 7650d32d89e0fc61 mcf-rate8/baseline\n"
        "9 5f23b13ae85a74c8 7650d32d89e0fc61 mcf-rate8/dap\n"
        "10 d9302a8a55016116 9760bde35dc08071 wburst:duty=0.6/baseline\n"
        "11 2e66c07fc5bee6b8 9760bde35dc08071 wburst:duty=0.6/dap\n");
    EXPECT_EQ(
        dryRun({"--workload", "mcf,hpcg", "--policy", "baseline,dap",
                "--instr", "3000", "--jobs", "2", "--remote",
                "--remote-scale", "4", "--remote-latency-ns", "120",
                "--warmup-fork"}),
        "0 b0e5ec2dc447688d f194bf978e7b87ee mcf-rate8/baseline\n"
        "1 4dca19719dbb1bc8 f194bf978e7b87ee mcf-rate8/dap\n"
        "2 7bde5d387efa39c8 16e0616f80a764c8 hpcg-rate8/baseline\n"
        "3 8cb97bf3d6ad841d 16e0616f80a764c8 hpcg-rate8/dap\n");
    EXPECT_EQ(
        dryRun({"--workload", "mcf,hpcg", "--policy", "baseline,dap",
                "--instr", "12000", "--warmup", "2000", "--fidelity",
                "sampled", "--fidelity-detail", "2000", "--fidelity-period",
                "4000", "--warmup-fork", "--jobs", "2"}),
        "0 97bddede2e244dd2 92fd3f63e159a774 mcf-rate8/baseline\n"
        "1 49b93f08edeb0648 92fd3f63e159a774 mcf-rate8/dap\n"
        "2 ecc736c9cd4fa802 5b034b7673f84bd2 hpcg-rate8/baseline\n"
        "3 b182efb93221b00c 5b034b7673f84bd2 hpcg-rate8/dap\n");
}

/** Manifest "options" objects written by the hand-coded encoder. */
const char *const kDefaultOptions =
    "{\"archs\":[\"sectored\"],\"policies\":[\"baseline\",\"dap\"],"
    "\"workloads\":[\"sensitive\"],\"capacities_mb\":[0],\"cores\":8,"
    "\"instr\":120000,\"seed\":0,\"warmup\":0,\"remote\":false,"
    "\"remote_scale\":4,\"remote_latency_ns\":120,"
    "\"remote_outstanding\":32,\"fidelity\":\"exact\","
    "\"fidelity_detail\":0,\"fidelity_period\":0}";
const char *const kFullOptions =
    "{\"archs\":[\"sectored\",\"alloy\"],\"policies\":[\"dap\",\"sbd\"],"
    "\"workloads\":[\"mcf\",\"zipf:skew=0.9,fp=1M\"],"
    "\"capacities_mb\":[32,64],\"cores\":4,\"instr\":5000,\"seed\":7,"
    "\"warmup\":3000,\"remote\":true,\"remote_scale\":2.5,"
    "\"remote_latency_ns\":80.25,\"remote_outstanding\":16,"
    "\"fidelity\":\"sampled\",\"fidelity_detail\":1000,"
    "\"fidelity_period\":5000}";

expd::GridOptions
fullGrid()
{
    return parse(expd::kSweep,
                 {"--arch", "sectored,alloy", "--policy", "dap,sbd",
                  "--workload", "mcf,zipf:skew=0.9,fp=1M", "--capacity-mb",
                  "32,64", "--cores", "4", "--instr", "5000", "--seed", "7",
                  "--warmup", "3000", "--remote", "--remote-scale", "2.5",
                  "--remote-latency-ns", "80.25", "--remote-outstanding",
                  "16", "--fidelity", "sampled", "--fidelity-detail", "1000",
                  "--fidelity-period", "5000"})
        .grid;
}

TEST(CliOptions, ManifestBytesMatchTheHandCodedEncoder)
{
    EXPECT_EQ(expd::encodeGridOptions(expd::GridOptions{}),
              kDefaultOptions);
    EXPECT_EQ(expd::encodeGridOptions(fullGrid()), kFullOptions);
    for (const char *text : {kDefaultOptions, kFullOptions})
        EXPECT_EQ(expd::encodeGridOptions(
                      expd::decodeGridOptions(json::parse(text))),
                  text);
}

TEST(CliOptions, ManifestDecodingKeepsOnlyFidelityKeysOptional)
{
    json::Value v = json::parse(kFullOptions);
    for (const char *key :
         {"fidelity", "fidelity_detail", "fidelity_period"})
        v.obj.erase(key);
    const expd::GridOptions old = expd::decodeGridOptions(v);
    EXPECT_EQ(old.fidelity, "exact");
    EXPECT_EQ(old.fidelityDetail, 0u);
    EXPECT_EQ(old.fidelityPeriod, 0u);
    expd::GridOptions want = fullGrid();
    want.fidelity = "exact";
    want.fidelityDetail = 0;
    want.fidelityPeriod = 0;
    EXPECT_EQ(expd::encodeGridOptions(old), expd::encodeGridOptions(want));

    for (const char *key :
         {"archs", "policies", "workloads", "capacities_mb", "cores",
          "instr", "seed", "warmup", "remote", "remote_scale",
          "remote_latency_ns", "remote_outstanding"}) {
        json::Value missing = json::parse(kFullOptions);
        missing.obj.erase(key);
        EXPECT_THROW(expd::decodeGridOptions(missing), json::JsonError)
            << key;
    }
}

} // namespace
} // namespace dapsim
