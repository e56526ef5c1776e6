/**
 * @file
 * Tests for the checkpoint subsystem: serializer framing, the
 * dapsim.ckpt.v3 container, bit-identical save/restore across every
 * MS$ architecture and partitioning policy, mismatch rejection, and
 * the sweep runner's warmup-fork mode.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "ckpt/checkpoint.hh"
#include "exp/result_sink.hh"
#include "exp/sweep_runner.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"

namespace dapsim
{
namespace
{

constexpr std::uint64_t kInstr = 2'000;

SystemConfig
sectoredTiny()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.numCores = 4;
    cfg.sectored.capacityBytes = 2 * kMiB;
    cfg.sectored.tagCache.entries = 128;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
alloyTiny()
{
    SystemConfig cfg = presets::alloySystem8();
    cfg.numCores = 4;
    cfg.alloy.capacityBytes = 2 * kMiB;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
edramTiny()
{
    SystemConfig cfg = presets::edramSystem8(1);
    cfg.numCores = 4;
    cfg.warmupAccessesPerCore = 2'000;
    return cfg;
}

SystemConfig
noneTiny()
{
    SystemConfig cfg = presets::sectoredSystem8();
    cfg.arch = MsArch::None;
    cfg.numCores = 4;
    cfg.warmupAccessesPerCore = 1;
    return cfg;
}

SystemConfig
tieredTiny()
{
    SystemConfig cfg = sectoredTiny();
    cfg.remote.enabled = true;
    cfg.remote.bwScaleFactor = 4.0;
    cfg.remote.addLatencyNs = 120.0;
    cfg.remote.maxOutstanding = 32;
    return cfg;
}

Mix
tinyMix(const std::string &workload)
{
    WorkloadProfile w = workloadByName(workload);
    w.params.footprintBytes = 256 * kKiB;
    return rateMix(w, 4);
}

/** Every metric of @p a and @p b is bit-identical. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.msHitRatio, b.msHitRatio);
    EXPECT_EQ(a.msReadMissRatio, b.msReadMissRatio);
    EXPECT_EQ(a.mmCasFraction, b.mmCasFraction);
    EXPECT_EQ(a.tagCacheMissRatio, b.tagCacheMissRatio);
    EXPECT_EQ(a.avgL3ReadMissLatency, b.avgL3ReadMissLatency);
    EXPECT_EQ(a.l3Mpki, b.l3Mpki);
    EXPECT_EQ(a.readGBps, b.readGBps);
    EXPECT_EQ(a.fwb, b.fwb);
    EXPECT_EQ(a.wb, b.wb);
    EXPECT_EQ(a.ifrm, b.ifrm);
    EXPECT_EQ(a.sfrm, b.sfrm);
}

/** Restoring a warm-up checkpoint reproduces the uninterrupted run. */
void
expectRestoreMatchesRun(SystemConfig cfg)
{
    const Mix mix = tinyMix("mcf");
    const RunResult direct = runMix(cfg, mix, kInstr, 7);
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const RunResult restored =
        ckpt::runMixFromCheckpoint(cfg, mix, kInstr, 7,
                                   ckpt::viewOf(ck));
    expectIdentical(direct, restored);
}

TEST(Serializer, PrimitivesRoundTrip)
{
    ckpt::Serializer s;
    s.u8(0xab);
    s.u32(0xdeadbeefu);
    s.u64(0x0123456789abcdefULL);
    s.i64(-42);
    s.f64(3.141592653589793);
    s.boolean(true);
    s.str("hello");
    const std::uint8_t raw[3] = {1, 2, 3};
    s.bytes(raw, sizeof(raw));

    ckpt::Deserializer d(s.buffer());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.f64(), 3.141592653589793);
    EXPECT_TRUE(d.boolean());
    EXPECT_EQ(d.str(), "hello");
    const auto bytes = d.bytes();
    ASSERT_EQ(bytes.size(), 3u);
    EXPECT_EQ(bytes[2], 3u);
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, SectionsFrameAndVerify)
{
    ckpt::Serializer s;
    s.beginSection("outer");
    s.u64(1);
    s.beginSection("inner");
    s.u32(2);
    s.endSection();
    s.endSection();

    ckpt::Deserializer d(s.buffer());
    d.enterSection("outer");
    EXPECT_EQ(d.u64(), 1u);
    d.enterSection("inner");
    EXPECT_EQ(d.u32(), 2u);
    d.leaveSection();
    d.leaveSection();
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, TakeMovesTheBufferOutAfterTheSectionCheck)
{
    ckpt::Serializer s;
    s.u32(7);
    s.beginSection("open");
    EXPECT_THROW(std::move(s).take(), ckpt::CkptError);
    s.endSection(); // the failed take() left the serializer intact
    const std::vector<std::uint8_t> copy = s.buffer();
    EXPECT_EQ(std::move(s).take(), copy);
}

TEST(Serializer, WrongSectionNameThrows)
{
    ckpt::Serializer s;
    s.beginSection("cores");
    s.u64(1);
    s.endSection();
    ckpt::Deserializer d(s.buffer());
    EXPECT_THROW(d.enterSection("l3"), ckpt::CkptError);
}

TEST(Serializer, UnderconsumedSectionThrows)
{
    ckpt::Serializer s;
    s.beginSection("cores");
    s.u64(1);
    s.u64(2);
    s.endSection();
    ckpt::Deserializer d(s.buffer());
    d.enterSection("cores");
    (void)d.u64();
    EXPECT_THROW(d.leaveSection(), ckpt::CkptError);
}

TEST(Serializer, SkipSectionReturnsNameAndAdvances)
{
    ckpt::Serializer s;
    s.beginSection("policy");
    s.u64(99);
    s.endSection();
    s.u32(5);
    ckpt::Deserializer d(s.buffer());
    EXPECT_EQ(d.skipSection(), "policy");
    EXPECT_EQ(d.u32(), 5u);
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, TruncatedInputThrows)
{
    ckpt::Serializer s;
    s.u64(1);
    std::vector<std::uint8_t> buf = s.buffer();
    buf.pop_back();
    ckpt::Deserializer d(buf);
    EXPECT_THROW((void)d.u64(), ckpt::CkptError);
}

TEST(Ckpt, EncodeDecodeRoundTripsHeaderAndPayload)
{
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   3);
    EXPECT_EQ(ck.header.version, ckpt::kVersion);
    EXPECT_EQ(ck.header.tick, 0u);
    EXPECT_EQ(ck.header.numCores, 4u);
    EXPECT_EQ(ck.header.seedSalt, 3u);
    EXPECT_EQ(ck.header.archId, ckpt::archIdOf(MsArch::None));

    const ckpt::Checkpoint rt = ckpt::decode(ckpt::encode(ck));
    EXPECT_EQ(rt.header.stateHash, ck.header.stateHash);
    EXPECT_EQ(rt.header.fullHash, ck.header.fullHash);
    EXPECT_EQ(rt.header.warmupPerCore, ck.header.warmupPerCore);
    EXPECT_EQ(rt.header.pendingEvents, ck.header.pendingEvents);
    EXPECT_EQ(rt.payload, ck.payload);
}

TEST(Ckpt, DecodeRejectsCorruption)
{
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    const std::vector<std::uint8_t> bytes = ckpt::encode(ck);

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(ckpt::decode(bad_magic), ckpt::CkptError);

    std::vector<std::uint8_t> bad_version = bytes;
    bad_version[8] = 0x63; // the version u32 follows the 8-byte magic
    EXPECT_THROW(ckpt::decode(bad_version), ckpt::CkptError);

    std::vector<std::uint8_t> truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(ckpt::decode(truncated), ckpt::CkptError);

    std::vector<std::uint8_t> corrupt = bytes;
    corrupt.back() ^= 0x01; // flip a payload bit: CRC must catch it
    EXPECT_THROW(ckpt::decode(corrupt), ckpt::CkptError);
}

TEST(Ckpt, FileRoundTripAndMissingFile)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_test.ckpt")
            .string();
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    ckpt::writeFile(path, ck);
    const ckpt::Checkpoint rt = ckpt::readFile(path);
    EXPECT_EQ(rt.header.fullHash, ck.header.fullHash);
    EXPECT_EQ(rt.payload, ck.payload);
    std::remove(path.c_str());
    EXPECT_THROW(ckpt::readFile(path), ckpt::CkptError);
}

TEST(Ckpt, AtomicWriteIsNeverTornUnderConcurrentWriters)
{
    // Regression test for the shared-warmup-cache reuse race: two
    // sweeps publishing the same checkpoint path concurrently while a
    // third loads it. writeFileAtomic (temp file + rename) guarantees
    // a reader only ever sees one writer's COMPLETE bytes.
    const std::string path = (std::filesystem::temp_directory_path() /
                              "dapsim_test_atomic.ckpt")
                                 .string();
    std::remove(path.c_str());

    const ckpt::Checkpoint a =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0);
    const ckpt::Checkpoint b =
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   1);
    ASSERT_NE(a.header.fullHash, b.header.fullHash);

    constexpr int kRounds = 200;
    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    ckpt::writeFileAtomic(path, a);

    std::thread writer_a([&] {
        for (int i = 0; i < kRounds; ++i)
            ckpt::writeFileAtomic(path, a);
    });
    std::thread writer_b([&] {
        for (int i = 0; i < kRounds; ++i)
            ckpt::writeFileAtomic(path, b);
    });
    std::thread reader([&] {
        while (!stop.load()) {
            // Every read must decode (CRC-clean) as exactly one of
            // the two published checkpoints, never a mixture.
            try {
                const ckpt::Checkpoint got = ckpt::readFile(path);
                if (got.header.fullHash == a.header.fullHash) {
                    if (got.payload != a.payload)
                        ++torn;
                } else if (got.header.fullHash == b.header.fullHash) {
                    if (got.payload != b.payload)
                        ++torn;
                } else {
                    ++torn;
                }
            } catch (const ckpt::CkptError &) {
                ++torn;
            }
        }
    });
    writer_a.join();
    writer_b.join();
    stop = true;
    reader.join();
    EXPECT_EQ(torn.load(), 0);
    std::remove(path.c_str());
}

TEST(Ckpt, SectoredRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(sectoredTiny());
}

TEST(Ckpt, AlloyRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(alloyTiny());
}

TEST(Ckpt, EdramRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(edramTiny());
}

TEST(Ckpt, NoMsCacheRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(noneTiny());
}

TEST(Ckpt, TieredRestoreIsBitIdentical)
{
    expectRestoreMatchesRun(tieredTiny());
}

TEST(Ckpt, TieredDapRestoreIsBitIdentical)
{
    SystemConfig cfg = tieredTiny();
    cfg.policy = PolicyKind::Dap;
    expectRestoreMatchesRun(cfg);
}

TEST(Ckpt, RemoteMemoryMidRunRoundTripMatchesUninterrupted)
{
    RemoteConfig rc;
    rc.enabled = true;
    rc.bwScaleFactor = 4.0;
    rc.addLatencyNs = 120.0;
    rc.maxOutstanding = 2;

    // Six posted writes against a two-deep credit window: two on the
    // link, four queued behind them.
    EventQueue eq1;
    RemoteMemory rm1(eq1, rc, 38.4);
    for (int i = 0; i < 6; ++i)
        rm1.access(static_cast<Addr>(i) * kBlockBytes, true);
    ASSERT_EQ(rm1.outstanding(), 6u);

    // Snapshot with the queue backed up, then let the original drain.
    ckpt::Serializer s;
    rm1.save(s);
    eq1.runUntil([&] { return rm1.writes.value() == 6; });

    // Restore into a fresh queue and drain the replica.
    EventQueue eq2;
    RemoteMemory rm2(eq2, rc, 38.4);
    ckpt::Deserializer d(s.buffer());
    rm2.restore(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(rm2.outstanding(), 6u);
    eq2.runUntil([&] { return rm2.writes.value() == 6; });

    // The replayed drain is indistinguishable from the uninterrupted
    // one: same finish time, same link statistics.
    EXPECT_EQ(eq1.now(), eq2.now());
    EXPECT_EQ(rm1.dataBytes(), rm2.dataBytes());
    EXPECT_EQ(rm1.queuePeakDepth(), rm2.queuePeakDepth());
    EXPECT_EQ(rm1.busUtilization(eq1.now()),
              rm2.busUtilization(eq2.now()));
}

TEST(Ckpt, RemoteSaveRefusesOutstandingReads)
{
    RemoteConfig rc;
    rc.enabled = true;
    EventQueue eq;
    RemoteMemory rm(eq, rc, 38.4);
    bool fired = false;
    rm.access(0, false, [&fired] { fired = true; });
    ckpt::Serializer s;
    EXPECT_THROW(rm.save(s), ckpt::CkptError);
    eq.runUntil([&] { return fired; });
    ckpt::Serializer ok;
    EXPECT_NO_THROW(rm.save(ok)); // drained: quiescent again
}

/** Capture a two-tier checkpoint and restore it into the same config
 *  with the remote tier switched on; returns the error message. */
std::string
restoreTwoTierIntoTiered()
{
    const Mix mix = tinyMix("mcf");
    auto build = [&](const SystemConfig &cfg) {
        std::vector<AccessGeneratorPtr> gens;
        for (std::uint32_t i = 0; i < cfg.numCores; ++i)
            gens.push_back(makeGenerator(mix.apps[i], i, 0));
        return std::make_unique<System>(cfg, std::move(gens));
    };
    auto flat = build(sectoredTiny());
    ckpt::Serializer s;
    flat->save(s);

    auto tiered = build(tieredTiny());
    ckpt::Deserializer d(s.buffer());
    try {
        tiered->restore(d);
    } catch (const ckpt::CkptError &e) {
        return e.what();
    }
    return "";
}

TEST(Ckpt, TwoTierCheckpointRefusedInTieredConfig)
{
    // A checkpoint taken without the remote tier has no "remote"
    // section: restoring it into a 3-tier config must fail with a
    // message naming the missing tier, not a generic framing error.
    const std::string msg = restoreTwoTierIntoTiered();
    EXPECT_NE(msg.find("remote"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot seed"), std::string::npos) << msg;
}

TEST(CkptDeathTest, TwoTierCheckpointIntoTieredConfigIsFatal)
{
    // The CLI surfaces the CkptError via fatal(); the death message
    // must name the remote tier so users know which knob to flip.
    EXPECT_DEATH(fatal(restoreTwoTierIntoTiered()), "remote");
}

TEST(Ckpt, ForkSeedsEveryPolicyBitIdentically)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    for (PolicyKind p :
         {PolicyKind::Dap, PolicyKind::Sbd, PolicyKind::SbdWt,
          PolicyKind::Batman, PolicyKind::Bear}) {
        SystemConfig variant = cfg;
        variant.policy = p;
        const RunResult direct = runMix(variant, mix, kInstr, 0);
        const RunResult forked = ckpt::runMixFromCheckpoint(
            variant, mix, kInstr, 0, ckpt::viewOf(ck), /*fork=*/true);
        expectIdentical(direct, forked);
    }
}

TEST(Ckpt, MismatchedConfigurationRefusesRestore)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    SystemConfig bigger = cfg;
    bigger.sectored.capacityBytes = 4 * kMiB;
    EXPECT_THROW(ckpt::runMixFromCheckpoint(bigger, mix, kInstr, 0,
                                            ckpt::viewOf(ck)),
                 ckpt::CkptError);

    // Different seed salt changes the streams: also refused.
    EXPECT_THROW(ckpt::runMixFromCheckpoint(cfg, mix, kInstr, 1,
                                            ckpt::viewOf(ck)),
                 ckpt::CkptError);

    // Different workload: refused.
    EXPECT_THROW(ckpt::runMixFromCheckpoint(cfg, tinyMix("bwaves"),
                                            kInstr, 0, ckpt::viewOf(ck)),
                 ckpt::CkptError);
}

TEST(Ckpt, MismatchedPolicyRequiresFork)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 0);

    SystemConfig variant = cfg;
    variant.policy = PolicyKind::Dap;
    EXPECT_THROW(ckpt::runMixFromCheckpoint(variant, mix, kInstr, 0,
                                            ckpt::viewOf(ck)),
                 ckpt::CkptError);
    EXPECT_NO_THROW(ckpt::runMixFromCheckpoint(
        variant, mix, kInstr, 0, ckpt::viewOf(ck), /*fork=*/true));
}

TEST(Ckpt, CaptureRequiresQuiescentPoint)
{
    SystemConfig cfg = noneTiny();
    cfg.core.instructions = kInstr;
    const Mix mix = tinyMix("mcf");
    std::vector<AccessGeneratorPtr> gens;
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(mix.apps[i], i, 0));
    System sys(cfg, std::move(gens));
    sys.warmup(1);
    sys.run();
    ckpt::Serializer s;
    EXPECT_THROW(sys.save(s), ckpt::CkptError);
}

/** Queue a one-workload, five-policy grid on @p runner. */
void
addPolicyGrid(exp::SweepRunner &runner)
{
    runner.addGrid(sectoredTiny(), {tinyMix("mcf")},
                   {PolicyKind::Baseline, PolicyKind::Dap,
                    PolicyKind::Sbd, PolicyKind::Batman,
                    PolicyKind::Bear},
                   kInstr);
}

TEST(SweepWarmupFork, ForkedSweepIsBitIdenticalToUnforked)
{
    exp::SweepRunner plain;
    addPolicyGrid(plain);
    const auto base = plain.run(1);

    exp::SweepRunner forked;
    addPolicyGrid(forked);
    forked.setWarmupFork(true);
    const auto fork = forked.run(4);

    // One shared warm-up for the whole 5-policy group.
    EXPECT_EQ(forked.warmupsExecuted(), 1u);
    ASSERT_EQ(base.size(), fork.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_TRUE(base[i].ok) << base[i].error;
        ASSERT_TRUE(fork[i].ok) << fork[i].error;
        expectIdentical(base[i].result, fork[i].result);
    }
}

TEST(SweepWarmupFork, OneWarmupPerDistinctGroup)
{
    exp::SweepRunner runner;
    runner.addGrid(sectoredTiny(),
                   {tinyMix("mcf"), tinyMix("bwaves")},
                   {PolicyKind::Baseline, PolicyKind::Dap}, kInstr);
    runner.setWarmupFork(true);
    const auto results = runner.run(4);
    for (const auto &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(runner.warmupsExecuted(), 2u);
}

TEST(SweepWarmupFork, CkptDirIsReusedAcrossSweeps)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "dapsim_ckpt_dir")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    exp::SweepRunner first;
    addPolicyGrid(first);
    first.setWarmupFork(true, dir);
    const auto a = first.run(2);
    EXPECT_EQ(first.warmupsExecuted(), 1u);

    exp::SweepRunner second;
    addPolicyGrid(second);
    second.setWarmupFork(true, dir);
    const auto b = second.run(2);
    EXPECT_EQ(second.warmupsExecuted(), 0u); // loaded from disk

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        expectIdentical(a[i].result, b[i].result);
    }
    std::filesystem::remove_all(dir);
}

/** Overwrite the low byte of the header's version field (it follows
 *  the 8-byte magic; the CRC covers only the payload). */
void
setVersionByte(std::vector<std::uint8_t> &bytes, std::uint8_t version)
{
    bytes[8] = version;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/** A retired @p version is refused by every reader, with a message
 *  that names the version and the way out. */
void
expectVersionRefused(std::uint8_t version)
{
    std::vector<std::uint8_t> bytes = ckpt::encode(
        ckpt::makeWarmupCheckpoint(noneTiny(), tinyMix("mcf"), kInstr,
                                   0));
    setVersionByte(bytes, version);
    const std::string named = "version " + std::to_string(version) + " ";
    auto expectRefused = [&](const std::function<void()> &read) {
        try {
            read();
            ADD_FAILURE() << "a version-" << int(version)
                          << " checkpoint was accepted";
        } catch (const ckpt::CkptError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(named), std::string::npos) << msg;
            EXPECT_NE(msg.find("dapsim --save-ckpt"), std::string::npos)
                << msg;
        }
    };
    expectRefused([&] { (void)ckpt::decode(bytes); });
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("dapsim_v" + std::to_string(version) + ".ckpt"))
            .string();
    writeBytes(path, bytes);
    expectRefused([&] { (void)ckpt::readFile(path); });
    expectRefused([&] { (void)ckpt::readFileMapped(path); });
    std::filesystem::remove(path);
}

/** A file of a retired @p version in a warmup-fork --ckpt-dir is
 *  treated as missing: the sweep warms up once, replaces it, and its
 *  rows equal those of a sweep that started from an empty directory. */
void
expectStaleVersionRegenerated(std::uint8_t version)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("dapsim_v" + std::to_string(version) + "_ckpt_dir"))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto sweep = [&](std::uint64_t want_warmups) {
        exp::SweepRunner runner;
        addPolicyGrid(runner);
        runner.setWarmupFork(true, dir);
        std::vector<std::string> rows;
        for (const exp::JobResult &r : runner.run(2)) {
            EXPECT_TRUE(r.ok) << r.error;
            rows.push_back(exp::jobResultToJson(r));
        }
        EXPECT_EQ(runner.warmupsExecuted(), want_warmups);
        return rows;
    };
    const std::vector<std::string> fresh = sweep(1);

    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path());
    ASSERT_EQ(files.size(), 1u);
    const std::string path = files[0].string();
    std::vector<std::uint8_t> bytes = ckpt::encode(ckpt::readFile(path));
    setVersionByte(bytes, version);
    writeBytes(path, bytes);

    EXPECT_EQ(sweep(1), fresh);
    EXPECT_EQ(ckpt::readFile(path).header.version, ckpt::kVersion);
    std::filesystem::remove_all(dir);
}

/** Version 1, the per-primitive encoding. */
TEST(CkptV2, VersionOneFilesAreRefused) { expectVersionRefused(1); }

TEST(CkptV2, VersionOneFileInCkptDirIsRegenerated)
{
    expectStaleVersionRegenerated(1);
}

/** Version 2, whose Alloy directory section is a one-way
 *  set-associative directory. */
TEST(CkptV2, VersionTwoFilesAreRefused) { expectVersionRefused(2); }

TEST(CkptV2, VersionTwoFileInCkptDirIsRegenerated)
{
    expectStaleVersionRegenerated(2);
}

/** Forks skip the policy section and seed other policies. */
TEST(CkptV2, V2ForkSeedsOtherPolicies)
{
    SystemConfig cfg = sectoredTiny();
    cfg.policy = PolicyKind::Baseline;
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);

    SystemConfig dap = cfg;
    dap.policy = PolicyKind::Dap;
    const RunResult direct = runMix(dap, mix, kInstr, 7);
    expectIdentical(direct, ckpt::runMixFromCheckpoint(
                                dap, mix, kInstr, 7, ckpt::viewOf(ck),
                                /*fork=*/true));
}

/** readFileMapped serves the same checkpoint as readFile, and the
 *  restored run matches; the mapping outlives the restore via the
 *  view's backing reference. */
TEST(CkptV2, MappedReadMatchesHeapRead)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_v2_map.ckpt")
            .string();
    ckpt::writeFileAtomic(path, ck);

    const ckpt::Checkpoint heap = ckpt::readFile(path);
    ckpt::CheckpointView mapped = ckpt::readFileMapped(path);
    ASSERT_TRUE(static_cast<bool>(mapped));
    EXPECT_EQ(mapped.header.version, heap.header.version);
    EXPECT_EQ(mapped.header.stateHash, heap.header.stateHash);
    ASSERT_EQ(mapped.payloadSize, heap.payload.size());
    EXPECT_EQ(std::memcmp(mapped.payload, heap.payload.data(),
                          heap.payload.size()),
              0);

    const RunResult direct = runMix(cfg, mix, kInstr, 7);
    expectIdentical(direct, ckpt::runMixFromCheckpoint(cfg, mix, kInstr,
                                                       7, mapped));
    std::filesystem::remove(path);
}

/** Corrupt payload bytes are rejected by the mapped reader too. */
TEST(CkptV2, MappedReadRejectsCorruption)
{
    const SystemConfig cfg = sectoredTiny();
    const Mix mix = tinyMix("mcf");
    const ckpt::Checkpoint ck =
        ckpt::makeWarmupCheckpoint(cfg, mix, kInstr, 7);
    const std::string path =
        (std::filesystem::temp_directory_path() / "dapsim_v2_bad.ckpt")
            .string();
    std::vector<std::uint8_t> bytes = ckpt::encode(ck);
    bytes[bytes.size() - 1] ^= 0xff;
    writeBytes(path, bytes);
    EXPECT_THROW((void)ckpt::readFileMapped(path), ckpt::CkptError);
    std::filesystem::remove(path);
}

} // namespace
} // namespace dapsim
