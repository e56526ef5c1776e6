/**
 * @file
 * Warm-state golden: FNV-1a digests of post-warm-up checkpoints.
 *
 * System::warmup must leave byte-for-byte the same state however it is
 * implemented. This pins that state: for every (architecture, workload,
 * warm-up length) below it builds a System the way `dapsim` does,
 * warms it, captures a dapsim.ckpt.v3 checkpoint and compares the
 * FNV-1a 64 digest of the encoded bytes (what `--save-ckpt` writes)
 * against tests/golden/warm_state.digests.txt.
 *
 * Coverage: {sectored 64 MiB, alloy 64 MiB, eDRAM 4 MiB, sectored +
 * remote tier} x {the fig12 8-app mix, `wburst:duty=0.6`, a mix of
 * drifting zipf/hotspot tenants} x {the default warm-up count, 0, 1,
 * and 1000 records per core — not a multiple of the warm pipeline's
 * chunk}.
 *
 * Regenerate only after an intended warm-state change:
 *
 *     ./build/tests/dapsim_golden_tests --update-golden \
 *         --gtest_filter='*WarmStateGolden*'
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "expd/grid.hh"
#include "golden_update.hh"
#include "workload/compose.hh"

namespace dapsim
{
namespace
{

const char *const kMix8 = "mix:t0=mcf,t1=libquantum,t2=omnetpp,t3=milc,"
                          "t4=hpcg,t5=bwaves,t6=gcc.expr,t7=parboil-lbm";
const char *const kDriftMix =
    "mix:t0=zipf,t0.cores=3,t0.drift=rotate,t0.period=60000,"
    "t1=hotspot,t1.cores=2,t1.drift=jump,t1.period=50000,"
    "t2=zipf,t2.cores=2,t2.drift=migrate,t2.period=40000,t3=mcf";

constexpr std::uint64_t kSeed = 1;

std::string
digestPath()
{
    return std::string(DAPSIM_GOLDEN_DIR) + "/warm_state.digests.txt";
}

std::map<std::string, std::string>
loadDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream is(digestPath());
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.find(' ');
        if (space != std::string::npos)
            out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

void
storeDigests(const std::map<std::string, std::string> &digests)
{
    std::ofstream os(digestPath());
    os << "# FNV-1a 64 of post-warm-up dapsim.ckpt.v3 bytes; "
          "see tests/test_warm_state_golden.cc\n";
    for (const auto &[key, value] : digests)
        os << key << ' ' << value << '\n';
}

struct Arch
{
    const char *label;
    const char *name;
    bool remote;
};

struct Workload
{
    const char *label;
    const char *spec;
};

void PrintTo(const Arch &a, std::ostream *os) { *os << a.label; }
void PrintTo(const Workload &w, std::ostream *os) { *os << w.label; }

/** Digest of the checkpoint `dapsim --save-ckpt` writes after
 *  @p warm records per core (resolveWarmCount when @p warm is
 *  ~0). */
std::string
warmDigest(const Arch &arch, const Workload &wl, std::uint64_t warm)
{
    SystemConfig cfg = expd::archConfig(arch.name, 0);
    cfg.numCores = 8;
    cfg.core.instructions = 150'000;
    cfg.policy = PolicyKind::Dap;
    cfg.dap.efficiency = 0.75;
    if (arch.remote) {
        cfg.remote.enabled = true;
        cfg.remote.bwScaleFactor = 4.0;
        cfg.remote.addLatencyNs = 120.0;
        cfg.remote.maxOutstanding = 32;
    }
    if (warm == ~std::uint64_t(0))
        warm = ckpt::resolveWarmCount(cfg);

    const workload::ComposedMix cm =
        workload::composeWorkload(wl.spec, cfg.numCores);
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(cm.mix.apps[i], i, kSeed));

    ckpt::CheckpointHeader h;
    h.stateHash =
        ckpt::stateHash(cfg, ckpt::describeMix(cm.mix), kSeed, warm);
    h.fullHash = ckpt::fullHash(h.stateHash, cfg);
    h.seedSalt = kSeed;
    h.warmupPerCore = warm;
    h.instr = cfg.core.instructions;
    h.numCores = cfg.numCores;
    h.archId = ckpt::archIdOf(cfg.arch);

    System sys(cfg, std::move(gens));
    sys.warmup(warm);
    const std::vector<std::uint8_t> bytes =
        ckpt::encode(ckpt::capture(sys, h));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, ckpt::fnv1a(bytes));
    return buf;
}

class WarmStateGolden
    : public ::testing::TestWithParam<std::tuple<Arch, Workload>>
{
};

TEST_P(WarmStateGolden, CheckpointBytesArePinned)
{
    const auto [arch, wl] = GetParam();
    const std::pair<const char *, std::uint64_t> warms[] = {
        {"default", ~std::uint64_t(0)}, {"0", 0}, {"1", 1}, {"1000", 1000}};

    std::map<std::string, std::string> golden = loadDigests();
    for (const auto &[label, warm] : warms) {
        const std::string key =
            std::string(arch.label) + "/" + wl.label + "/" + label;
        const std::string got = warmDigest(arch, wl, warm);
        if (golden::g_update) {
            golden[key] = got;
            continue;
        }
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end())
            << "no digest for " << key
            << " — run dapsim_golden_tests --update-golden";
        EXPECT_EQ(it->second, got) << key;
    }
    if (golden::g_update)
        storeDigests(golden);
}

std::string
caseName(const ::testing::TestParamInfo<std::tuple<Arch, Workload>> &i)
{
    return std::string(std::get<0>(i.param).label) + "_" +
           std::get<1>(i.param).label;
}

INSTANTIATE_TEST_SUITE_P(
    ArchWorkload, WarmStateGolden,
    ::testing::Combine(
        ::testing::Values(Arch{"sectored", "sectored", false},
                          Arch{"alloy", "alloy", false},
                          Arch{"edram", "edram", false},
                          Arch{"tiered", "sectored", true}),
        ::testing::Values(Workload{"mix8", kMix8},
                          Workload{"wburst", "wburst:duty=0.6"},
                          Workload{"drift", kDriftMix})),
    caseName);

} // namespace
} // namespace dapsim
