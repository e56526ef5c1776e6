#include "memside/alloy_cache.hh"

namespace dapsim
{

AlloyCache::AlloyCache(EventQueue &eq, DramSystem &main_memory,
                       PartitionPolicy &policy,
                       const AlloyCacheConfig &cfg)
    : MemSideCache(eq, main_memory, policy), cfg_(cfg),
      array_(eq, cfg.array), dir_(cfg.numSets()),
      dbc_(cfg.dbc), predictor_(cfg.predictorEntries, 3),
      predDiv_(FastDiv::of(predictor_.size()))
{
}

double
AlloyCache::effectivePeakAccPerCycle() const
{
    const double data_clocks =
        cfg_.array.ddr ? (cfg_.array.burstLength + 1) / 2
                       : cfg_.array.burstLength;
    const double tad_clocks = data_clocks + cfg_.tadExtraClocks;
    return cfg_.array.peakAccessesPerCpuCycle() * data_clocks /
           tad_clocks;
}

std::size_t
AlloyCache::predictorIndex(Addr a) const
{
    // Region-hash (4 KB) indexed 2-bit counters.
    const std::uint64_t region = a >> 12;
    return static_cast<std::size_t>(
        predDiv_.mod((region * 0x9e3779b97f4a7c15ULL) >> 32));
}

bool
AlloyCache::predictHit(Addr a) const
{
    // >= 2 predicts hit.
    return predictor_[predictorIndex(a)] >= 2;
}

void
AlloyCache::trainPredictor(Addr a, bool hit)
{
    const std::size_t i = predictorIndex(a);
    if (hit) {
        if (predictor_[i] < 3)
            ++predictor_[i];
    } else if (predictor_[i] > 0) {
        --predictor_[i];
    }
}

void
AlloyCache::handleRead(Addr addr, Done done)
{
    window_.lookups++;
    const std::uint64_t set = setOf(addr);

    if (policy_.isSetDisabled(set)) {
        readMisses.inc();
        window_.aMm++;
        memAccess(addr, false, std::move(done));
        return;
    }

    SteerInfo steer;
    steer.expectedCacheLatency = static_cast<double>(
        array_.totalReadQueue() + 1) * static_cast<double>(
        cfg_.array.burstTicks()) + array_.meanReadLatency();
    steer.expectedMemLatency = static_cast<double>(
        mm_.totalReadQueue() + 1) * static_cast<double>(
        mm_.config().burstTicks()) + mm_.meanReadLatency();
    steer.predictedHit = predictHit(addr);
    if (policy_.steerToMemory(addr, steer)) {
        if (!dir_.holds(set, tagOf(addr)) || !dir_.dirty(set)) {
            memAccess(addr, false, std::move(done));
            return;
        }
    }

    // IFRM: the DBC tells us (after a 5-cycle SRAM probe, charged as
    // pure latency) whether the addressed line is known clean. The DBC
    // is keyed by block address so that spatially adjacent lines share
    // entries (hashed set indices would scatter the paper's
    // 64-consecutive-sets grouping).
    const DirtyBitCache::Probe probe = dbc_.probe(blockNumber(addr));
    if (probe.hit && !probe.dirty && policy_.shouldForceReadMiss(addr)) {
        forcedReadMisses.inc();
        window_.aMs++; // the TAD read this access would have demanded
        const bool hit = dir_.holds(set, tagOf(addr));
        if (hit) {
            readHits.inc();
            window_.hits++;
            cleanReadHits.inc();
            window_.cleanHits++;
        } else {
            // The line was absent: the fill is bypassed implicitly.
            readMisses.inc();
            window_.aMm++;
            fillsBypassed.inc();
        }
        trainPredictor(addr, hit);
        memAccess(addr, false, std::move(done));
        return;
    }

    const std::uint32_t slot = parkRead(std::move(done));

    // Predicted miss: start miss handling early.
    if (!predictHit(addr)) {
        earlyMissReads.inc();
        speculate(slot, addr);
    }

    window_.aMs++; // TAD read
    array_.access(tadAddr(set), false,
                  [this, addr, slot] { resolveRead(addr, slot); },
                  cfg_.tadExtraClocks);
}

void
AlloyCache::resolveRead(Addr addr, std::uint32_t slot)
{
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    const bool hit = dir_.holds(set, tag);
    const bool early = speculating(slot);
    policy_.noteReadOutcome(addr, hit);
    trainPredictor(addr, hit);
    if (hit == !early)
        predictorHits.inc();
    else
        predictorMisses.inc();

    if (hit) {
        readHits.inc();
        window_.hits++;
        const bool dirty = dir_.dirty(set);
        if (!dirty) {
            cleanReadHits.inc();
            window_.cleanHits++;
        }
        dbc_.update(blockNumber(addr), dirty);
        if (early)
            wastedEarlyReads.inc(); // speculative memory read dropped
        finishRead(slot); // data arrived with the TAD
        return;
    }

    // Miss.
    readMisses.inc();
    window_.aMm++;
    if (early)
        serveFromFetch(slot);
    else
        memAccess(addr, false, takeRead(slot));
    fill(addr);
}

void
AlloyCache::fill(Addr addr)
{
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);

    if (policy_.shouldBypassFillForReuse(addr)) {
        fillsBypassed.inc();
        return;
    }

    // The victim's data came back with the lookup TAD, so a dirty
    // victim needs only the memory write.
    const DirectMappedDir::Victim victim = dir_.insert(set, tag);
    if (victim.valid && victim.dirty) {
        window_.aMm++;
        dirtyWritebacks.inc();
        const Addr vaddr = victim.tag << kBlockShift;
        memAccess(vaddr, true);
    }

    fills.inc();
    window_.aMs++; // fill TAD write
    dbc_.update(blockNumber(addr), false);
    array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
}

bool
AlloyCache::warmTouch(Addr addr, bool is_write)
{
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    const bool hit = dir_.holds(set, tag);
    if (!hit) // direct-mapped: replaces the victim
        dir_.insert(set, tag);
    if (is_write)
        dir_.setDirty(set, true);
    dbc_.update(blockNumber(addr), dir_.dirty(set));
    trainPredictor(addr, true);
    return hit;
}

void
AlloyCache::warmApply(const WarmAccess *ops, std::size_t n)
{
    // The directory is one word per block (megabytes), so a touch is
    // mostly cache misses: fetch a few sets ahead.
    constexpr std::size_t kAhead = 8;
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kAhead < n)
            dir_.prefetch(setOf(ops[i + kAhead].addr));
        AlloyCache::warmTouch(ops[i].addr, ops[i].isWrite);
    }
}

void
AlloyCache::handleWrite(Addr addr)
{
    window_.lookups++;
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);

    if (policy_.isSetDisabled(set)) {
        writeMisses.inc();
        memAccess(addr, true);
        return;
    }

    policy_.noteWrite(addr);
    window_.writes++;

    const bool present = dir_.holds(set, tag);

    if (!present && !cfg_.presenceBit) {
        // Without the BEAR presence bit the TAD must be fetched to
        // discover the absence.
        window_.aMs++;
        array_.access(tadAddr(set), false, nullptr, cfg_.tadExtraClocks);
    }

    if (present) {
        writeHits.inc();
        window_.hits++;
        window_.aMs++;
        const bool write_through = policy_.shouldWriteThrough(addr);
        dir_.setDirty(set, !write_through);
        dbc_.update(blockNumber(addr), !write_through);
        array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
        if (write_through)
            memAccess(addr, true);
        return;
    }

    // Write miss: allocate over the victim. The victim's dirty state
    // must be discovered via a TAD fetch before it can be replaced.
    writeMisses.inc();
    window_.aMs++;
    array_.access(tadAddr(set), false, nullptr, cfg_.tadExtraClocks);
    const DirectMappedDir::Victim victim = dir_.insert(set, tag);
    if (victim.valid && victim.dirty) {
        window_.aMm++;
        dirtyWritebacks.inc();
        const Addr vaddr = victim.tag << kBlockShift;
        memAccess(vaddr, true);
    }
    const bool write_through = policy_.shouldWriteThrough(addr);
    dir_.setDirty(set, !write_through);
    dbc_.update(blockNumber(addr), !write_through);
    window_.aMs++;
    array_.access(tadAddr(set), true, nullptr, cfg_.tadExtraClocks);
    if (write_through)
        memAccess(addr, true);
}

void
AlloyCache::save(ckpt::Serializer &s) const
{
    saveBase(s);
    array_.save(s);
    dir_.save(s);
    dbc_.save(s);
    s.bytes(predictor_.data(), predictor_.size());
    s.u64(predictorHits.value());
    s.u64(predictorMisses.value());
    s.u64(earlyMissReads.value());
    s.u64(wastedEarlyReads.value());
}

void
AlloyCache::restore(ckpt::Deserializer &d)
{
    restoreBase(d);
    array_.restore(d);
    dir_.restore(d, [this](std::uint64_t tag) {
        return setOf(tag << kBlockShift);
    });
    dbc_.restore(d);
    const std::vector<std::uint8_t> pred = d.bytes();
    if (pred.size() != predictor_.size())
        throw ckpt::CkptError("ckpt: Alloy predictor size mismatch");
    predictor_ = pred;
    predictorHits.set(d.u64());
    predictorMisses.set(d.u64());
    earlyMissReads.set(d.u64());
    wastedEarlyReads.set(d.u64());
}

} // namespace dapsim
