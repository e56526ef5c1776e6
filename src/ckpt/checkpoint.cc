#include "ckpt/checkpoint.hh"

#include <fstream>
#include <iterator>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fsio.hh"
#include "sim/fidelity_runner.hh"

namespace dapsim::ckpt
{

namespace
{

/**
 * Rough estimate of the System::save payload size, used to
 * pre-reserve the Serializer buffer so a multi-MB snapshot doesn't
 * realloc its way up from empty. Dominant terms: the MS$ sector/line
 * directory and the L3 directory, estimated at 18 bytes per line plus
 * the value (the spans take 16 per line and 16 per set, plus the
 * value).
 */
std::size_t
payloadSizeHint(const SystemConfig &cfg)
{
    std::size_t hint = 1 << 20; // cores, DRAM, policy, slack
    const std::size_t l3Lines = cfg.l3.capacityBytes / kBlockBytes;
    hint += l3Lines * 20;
    switch (cfg.arch) {
      case MsArch::Sectored:
        hint += cfg.sectored.capacityBytes / cfg.sectored.sectorBytes *
                (18 + 24);
        hint += cfg.sectored.tagCache.entries * 20;
        hint += cfg.sectored.footprint.tableEntries * 16;
        break;
      case MsArch::Alloy:
        hint += cfg.alloy.capacityBytes / kBlockBytes * 8;
        hint += cfg.alloy.predictorEntries;
        break;
      case MsArch::Edram:
        hint += cfg.edram.capacityBytes / cfg.edram.sectorBytes *
                (18 + 24);
        hint += cfg.edram.footprint.tableEntries * 16;
        break;
      case MsArch::None:
        break;
    }
    return hint;
}

/** Canonicalize a DramConfig's timing/geometry (name excluded). */
void
putDram(Serializer &s, const DramConfig &c)
{
    s.u32(c.channels);
    s.u32(c.ranksPerChannel);
    s.u32(c.banksPerRank);
    s.u64(c.rowBufferBytes);
    s.u64(c.freqMHz);
    s.boolean(c.ddr);
    s.u32(c.channelWidthBits);
    s.u32(c.burstLength);
    s.u32(c.tCAS);
    s.u32(c.tRCD);
    s.u32(c.tRP);
    s.u32(c.tRAS);
    s.u32(c.ioDelayCycles);
    s.u32(c.tREFI);
    s.u32(c.tRFC);
    s.u32(c.turnaroundCycles);
    s.u32(c.writeQueueHigh);
    s.u32(c.writeQueueLow);
    s.u32(c.schedulerScanDepth);
}

void
putFootprint(Serializer &s, const FootprintConfig &c)
{
    s.u64(c.tableEntries);
    s.u32(c.coldRunLength);
    s.boolean(c.enabled);
}

std::uint32_t
policyId(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Baseline:
        return 0;
      case PolicyKind::Dap:
        return 1;
      case PolicyKind::Sbd:
        return 2;
      case PolicyKind::SbdWt:
        return 3;
      case PolicyKind::Batman:
        return 4;
      case PolicyKind::Bear:
        return 5;
    }
    return 0;
}

} // namespace

std::uint32_t
archIdOf(MsArch arch)
{
    switch (arch) {
      case MsArch::Sectored:
        return 0;
      case MsArch::Alloy:
        return 1;
      case MsArch::Edram:
        return 2;
      case MsArch::None:
        return 3;
    }
    return 3;
}

std::string
describeMix(const Mix &mix)
{
    // Canonical binary description of the per-core streams: the
    // parameters makeGenerator consumes, doubles as bit patterns so
    // formatting cannot lose precision.
    Serializer s;
    s.str(mix.name);
    s.u64(mix.apps.size());
    for (const WorkloadProfile &w : mix.apps) {
        s.str(w.name);
        // Workload-engine profiles are fully described by their spec
        // string (empty for classic profiles); the SyntheticParams
        // block below is then inert but kept for a stable layout.
        s.str(w.spec);
        const SyntheticParams &p = w.params;
        s.u64(p.footprintBytes);
        s.f64(p.hotFraction);
        s.f64(p.hotProbability);
        s.f64(p.streamFraction);
        s.f64(p.runLength);
        s.f64(p.writeFraction);
        s.f64(p.mpki);
        s.u64(p.base);
        s.u64(p.seed);
    }
    const auto &b = s.buffer();
    return std::string(reinterpret_cast<const char *>(b.data()),
                       b.size());
}

std::uint64_t
resolveWarmCount(const SystemConfig &cfg)
{
    return cfg.warmupPerCore();
}

std::uint64_t
stateHash(const SystemConfig &cfg, const std::string &stream_desc,
          std::uint64_t seed_salt, std::uint64_t warm_per_core)
{
    Serializer s;
    s.str("dapsim.ckpt.state.v1");
    s.u32(cfg.numCores);
    s.u64(cfg.windowCycles);
    s.u64(warm_per_core);
    s.u64(seed_salt);
    s.u32(archIdOf(cfg.arch));

    // Core (instruction target excluded: it is a run parameter, not
    // part of the warm state).
    s.u32(cfg.core.retireWidth);
    s.u32(cfg.core.robEntries);
    s.u32(cfg.core.maxOutstanding);

    s.u64(cfg.l3.capacityBytes);
    s.u32(cfg.l3.ways);
    s.u64(cfg.l3.latencyCycles);

    // Active architecture only: the inactive configs influence nothing.
    switch (cfg.arch) {
      case MsArch::Sectored:
        s.u64(cfg.sectored.capacityBytes);
        s.u32(cfg.sectored.ways);
        s.u64(cfg.sectored.sectorBytes);
        putDram(s, cfg.sectored.array);
        s.u64(cfg.sectored.tagCache.entries);
        s.u32(cfg.sectored.tagCache.ways);
        s.u32(cfg.sectored.tagCache.lookupCycles);
        s.boolean(cfg.sectored.tagCache.enabled);
        putFootprint(s, cfg.sectored.footprint);
        break;
      case MsArch::Alloy:
        s.u64(cfg.alloy.capacityBytes);
        putDram(s, cfg.alloy.array);
        s.u64(cfg.alloy.dbc.entries);
        s.u32(cfg.alloy.dbc.ways);
        s.u32(cfg.alloy.dbc.setsPerEntry);
        s.u32(cfg.alloy.dbc.lookupCycles);
        s.u32(cfg.alloy.tadExtraClocks);
        s.boolean(cfg.alloy.presenceBit);
        s.u64(cfg.alloy.predictorEntries);
        break;
      case MsArch::Edram:
        s.u64(cfg.edram.capacityBytes);
        s.u32(cfg.edram.ways);
        s.u64(cfg.edram.sectorBytes);
        putDram(s, cfg.edram.readChannels);
        putDram(s, cfg.edram.writeChannels);
        s.u64(cfg.edram.tagLookupCycles);
        putFootprint(s, cfg.edram.footprint);
        break;
      case MsArch::None:
        break;
    }

    putDram(s, cfg.mainMemory);

    // Appended only when enabled so 2-tier hashes stay stable across
    // the remote-tier introduction (and a tiered restore into a 2-tier
    // config — or vice versa — is refused by the hash check).
    if (cfg.remote.enabled) {
        s.boolean(true);
        s.f64(cfg.remote.bwScaleFactor);
        s.f64(cfg.remote.addLatencyNs);
        s.u32(cfg.remote.maxOutstanding);
    }

    s.boolean(cfg.prefetch.enabled);
    s.u32(cfg.prefetch.streams);
    s.u32(cfg.prefetch.degree);
    s.u32(cfg.prefetch.distance);
    s.u32(cfg.prefetch.minConfidence);

    s.str(stream_desc);
    return fnv1a(s.buffer());
}

std::uint64_t
fullHash(std::uint64_t state_hash, const SystemConfig &cfg)
{
    Serializer s;
    s.str("dapsim.ckpt.full.v1");
    s.u64(state_hash);
    s.u32(policyId(cfg.policy));

    // Two retired config flags (DAP and BATMAN parameters given
    // explicitly) were always false; their bytes stay so that job ids,
    // fork-group keys and checkpoint headers do not move.
    s.boolean(false);
    s.u32(archIdOf(cfg.arch));
    s.u64(cfg.dap.windowCycles);
    s.f64(cfg.dap.efficiency);
    s.f64(cfg.dap.msPeakAccPerCycle);
    s.f64(cfg.dap.msWritePeakAccPerCycle);
    s.f64(cfg.dap.mmPeakAccPerCycle);
    s.f64(cfg.dap.sfrmFactor);
    s.u32(cfg.dap.kShift);
    s.i64(cfg.dap.creditMax);
    s.i64(cfg.dap.targetCap);
    s.boolean(cfg.dap.enableFwb);
    s.boolean(cfg.dap.enableWb);
    s.boolean(cfg.dap.enableIfrm);
    s.boolean(cfg.dap.enableSfrm);
    s.u64(cfg.dap.ifrmCoreMask);

    s.u64(cfg.sbd.pageBytes);
    s.u64(cfg.sbd.dirtyListCapacity);
    s.u64(cfg.sbd.bloomBuckets);
    s.u32(cfg.sbd.bloomHashes);
    s.u8(cfg.sbd.writeThreshold);
    s.u64(cfg.sbd.decayWindows);
    s.boolean(cfg.sbd.writeThroughOnly);

    s.boolean(false);
    s.u64(cfg.batman.numSets);
    s.f64(cfg.batman.targetHitRate);
    s.f64(cfg.batman.hysteresis);
    s.u64(cfg.batman.epochWindows);
    s.f64(cfg.batman.stepFraction);
    s.f64(cfg.batman.maxDisabledFraction);

    s.u64(cfg.bear.reuseTableEntries);
    s.u32(cfg.bear.regionShift);
    s.f64(cfg.bear.bypassProbability);
    s.u64(cfg.bear.rngSeed);

    return fnv1a(s.buffer());
}

CheckpointHeader
warmupHeader(const SystemConfig &cfg, const std::string &stream_desc,
             std::uint64_t seed_salt, std::uint64_t instr)
{
    CheckpointHeader h;
    h.seedSalt = seed_salt;
    h.warmupPerCore = resolveWarmCount(cfg);
    h.instr = instr;
    h.numCores = cfg.numCores;
    h.archId = archIdOf(cfg.arch);
    h.stateHash = stateHash(cfg, stream_desc, seed_salt, h.warmupPerCore);
    h.fullHash = fullHash(h.stateHash, cfg);
    return h;
}

Checkpoint
capture(System &sys, CheckpointHeader header)
{
    Serializer s;
    s.reserve(payloadSizeHint(sys.config()));
    sys.save(s);
    header.version = kVersion;
    header.tick = sys.eventQueue().now();
    header.pendingEvents = sys.eventQueue().pending();
    Checkpoint ckpt;
    ckpt.header = header;
    ckpt.payload = std::move(s).take();
    return ckpt;
}

void
restoreInto(System &sys, CheckpointView view,
            const CheckpointHeader &expect, bool fork)
{
    if (!view)
        throw CkptError("ckpt: empty checkpoint view");
    if (view.header.stateHash != expect.stateHash)
        throw CkptError(
            "ckpt: configuration/stream mismatch (the checkpoint was "
            "taken under a different system configuration, workload, "
            "seed or warm-up length)");
    if (!fork && view.header.fullHash != expect.fullHash)
        throw CkptError(
            "ckpt: policy mismatch (the checkpoint was taken under a "
            "different partitioning policy; only a warmup-fork restore "
            "seeds another policy)");
    Deserializer d(view.payload, view.payloadSize, view.header.version);
    sys.restore(d, fork);
    if (!d.atEnd())
        throw CkptError("ckpt: trailing bytes after the last section");
}

std::vector<std::uint8_t>
encode(const Checkpoint &ckpt)
{
    Serializer s;
    for (char c : kMagic)
        s.u8(static_cast<std::uint8_t>(c));
    s.u32(ckpt.header.version);
    s.u64(ckpt.header.stateHash);
    s.u64(ckpt.header.fullHash);
    s.u64(ckpt.header.tick);
    s.u64(ckpt.header.seedSalt);
    s.u64(ckpt.header.warmupPerCore);
    s.u64(ckpt.header.instr);
    s.u32(ckpt.header.numCores);
    s.u32(ckpt.header.archId);
    s.u64(ckpt.header.pendingEvents);
    s.u64(ckpt.payload.size());
    s.u32(crc32(ckpt.payload.data(), ckpt.payload.size()));
    std::vector<std::uint8_t> out = std::move(s).take();
    out.insert(out.end(), ckpt.payload.begin(), ckpt.payload.end());
    return out;
}

namespace
{

/** Parse + validate everything up to the payload bytes; on return
 *  the deserializer sits on the first payload byte and @p d.remaining()
 *  is the CRC-verified payload length. */
CheckpointHeader
decodeHeader(Deserializer &d, const std::uint8_t *data,
             std::size_t size)
{
    for (char c : kMagic)
        if (d.u8() != static_cast<std::uint8_t>(c))
            throw CkptError("ckpt: not a dapsim checkpoint (bad magic)");
    CheckpointHeader h;
    h.version = d.u32();
    checkVersion(h.version);
    h.stateHash = d.u64();
    h.fullHash = d.u64();
    h.tick = d.u64();
    if (h.tick != 0)
        throw CkptError("ckpt: checkpoints must be at tick 0");
    h.seedSalt = d.u64();
    h.warmupPerCore = d.u64();
    h.instr = d.u64();
    h.numCores = d.u32();
    h.archId = d.u32();
    h.pendingEvents = d.u64();
    const std::uint64_t len = d.u64();
    const std::uint32_t crc = d.u32();
    if (len != d.remaining())
        throw CkptError("ckpt: truncated checkpoint payload");
    if (crc32(data + (size - static_cast<std::size_t>(len)),
              static_cast<std::size_t>(len)) != crc)
        throw CkptError("ckpt: payload CRC mismatch (corrupt file)");
    return h;
}

} // namespace

Checkpoint
decode(const std::uint8_t *data, std::size_t size)
{
    Deserializer d(data, size);
    Checkpoint ckpt;
    ckpt.header = decodeHeader(d, data, size);
    ckpt.payload.assign(data + (size - d.remaining()), data + size);
    return ckpt;
}

Checkpoint
decode(const std::vector<std::uint8_t> &bytes)
{
    return decode(bytes.data(), bytes.size());
}

CheckpointView
viewOf(std::shared_ptr<const Checkpoint> ckpt)
{
    CheckpointView v;
    if (!ckpt)
        return v;
    v.header = ckpt->header;
    v.payload = ckpt->payload.data();
    v.payloadSize = ckpt->payload.size();
    v.backing = std::move(ckpt);
    return v;
}

CheckpointView
viewOf(const Checkpoint &ckpt)
{
    CheckpointView v;
    v.header = ckpt.header;
    v.payload = ckpt.payload.data();
    v.payloadSize = ckpt.payload.size();
    return v;
}

void
writeFile(const std::string &path, const Checkpoint &ckpt)
{
    const std::vector<std::uint8_t> bytes = encode(ckpt);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw CkptError("ckpt: cannot write " + path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw CkptError("ckpt: write failed: " + path);
}

void
writeFileAtomic(const std::string &path, const Checkpoint &ckpt)
{
    const std::vector<std::uint8_t> bytes = encode(ckpt);
    try {
        fsio::atomicWriteFile(path, bytes.data(), bytes.size());
    } catch (const std::exception &e) {
        throw CkptError(std::string("ckpt: ") + e.what());
    }
}

Checkpoint
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CkptError("ckpt: cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decode(bytes);
}

CheckpointView
readFileMapped(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw CkptError("ckpt: cannot open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        throw CkptError("ckpt: cannot stat " + path);
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (map == MAP_FAILED) {
        // Filesystem without mmap support: plain heap read.
        return viewOf(std::make_shared<const Checkpoint>(
            readFile(path)));
    }
    std::shared_ptr<const void> backing(
        map, [size](const void *p) {
            ::munmap(const_cast<void *>(p), size);
        });
    const auto *data = static_cast<const std::uint8_t *>(map);
    Deserializer d(data, size);
    CheckpointView v;
    v.header = decodeHeader(d, data, size);
    v.payload = data + (size - d.remaining());
    v.payloadSize = d.remaining();
    v.backing = std::move(backing);
    return v;
}

Checkpoint
makeWarmupCheckpoint(SystemConfig cfg, const Mix &mix,
                     std::uint64_t instr, std::uint64_t seed_salt)
{
    if (mix.apps.size() != cfg.numCores)
        throw CkptError("ckpt: mix width != core count");
    const CheckpointHeader header =
        warmupHeader(cfg, describeMix(mix), seed_salt, instr);

    cfg.core.instructions = instr;
    std::vector<AccessGeneratorPtr> gens;
    gens.reserve(cfg.numCores);
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(mix.apps[i], i, seed_salt));

    System sys(cfg, std::move(gens));
    sys.warmup(header.warmupPerCore);
    return capture(sys, header);
}

RunResult
runMixFromCheckpoint(SystemConfig cfg, const Mix &mix,
                     std::uint64_t instr_per_core,
                     std::uint64_t seed_salt, CheckpointView ckpt,
                     bool fork)
{
    if (mix.apps.size() != cfg.numCores)
        throw CkptError("ckpt: mix width != core count");
    const CheckpointHeader expect =
        warmupHeader(cfg, describeMix(mix), seed_salt, instr_per_core);

    cfg.core.instructions = instr_per_core;
    std::vector<AccessGeneratorPtr> gens;
    gens.reserve(cfg.numCores);
    for (std::uint32_t i = 0; i < cfg.numCores; ++i)
        gens.push_back(makeGenerator(mix.apps[i], i, seed_salt));

    System sys(cfg, std::move(gens));
    // Moved in: the bytes go once restored, before the timed run.
    restoreInto(sys, std::move(ckpt), expect, fork);
    return runFidelityOn(sys, mix.name, instr_per_core);
}

} // namespace dapsim::ckpt
