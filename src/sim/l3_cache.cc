#include "sim/l3_cache.hh"

namespace dapsim
{

L3Cache::L3Cache(EventQueue &eq, const L3Config &cfg, MemSideCache &ms)
    : eq_(eq), cfg_(cfg), ms_(ms),
      dir_(cfg.numSets(), cfg.ways, ReplPolicy::LRU)
{
}

void
L3Cache::install(Addr addr, bool dirty)
{
    const std::uint64_t set = setOf(addr);
    auto victim = dir_.insert(set, tagOf(addr), Line{dirty});
    if (victim.valid && victim.value.dirty) {
        writebacksToMs.inc();
        const Addr vaddr = victim.tag << kBlockShift;
        ms_.handleWrite(vaddr);
    }
}

L3Cache::WarmOutcome
L3Cache::warmTouch(Addr addr, bool is_write)
{
    const WarmFlow f = warmFlow(addr, is_write);
    WarmOutcome out;
    out.l3Hit = f.l3Hit;
    if (f.writeback) {
        ms_.warmTouch(f.victimAddr, true);
        out.msWriteback = true;
    }
    if (f.readMiss) {
        out.msRead = true;
        out.msHit = ms_.warmTouch(addr, false);
    }
    return out;
}

void
L3Cache::access(Addr addr, bool is_write, Done done)
{
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *l = dir_.find(set, tag);
    const Tick lookup = cpuCyclesToTicks(cfg_.latencyCycles);

    if (l != nullptr) {
        hits.inc();
        dir_.touch(set, tag);
        if (is_write) {
            l->dirty = true;
        } else if (done) {
            eq_.scheduleAfter(lookup, std::move(done));
        }
        return;
    }

    misses.inc();
    if (is_write) {
        // L2 writeback missing in the L3: allocate without a fetch
        // (full-block write).
        install(addr, true);
        return;
    }

    readMisses.inc();
    install(addr, false);
    // The L3 lookup precedes the downstream access.
    const std::uint32_t slot =
        misses_.put(MissCont{addr, eq_.now(), std::move(done)});
    eq_.scheduleAfter(lookup, [this, slot] { lookupDone(slot); });
}

void
L3Cache::lookupDone(std::uint32_t slot)
{
    ms_.handleRead(misses_[slot].addr, [this, slot] {
        // Recycle before completing: done() may issue new accesses.
        MissCont c = misses_.take(slot);
        readMissLatency.sample(static_cast<double>(eq_.now() - c.issued));
        if (c.done)
            c.done();
    });
}

void
L3Cache::save(ckpt::Serializer &s) const
{
    dir_.save(s, [](ckpt::Serializer &sr, const Line &l) {
        sr.boolean(l.dirty);
    });
    s.u64(hits.value());
    s.u64(misses.value());
    s.u64(readMisses.value());
    s.u64(writebacksToMs.value());
    s.f64(readMissLatency.sum());
    s.u64(readMissLatency.count());
}

void
L3Cache::restore(ckpt::Deserializer &d)
{
    dir_.restore(d, [](ckpt::Deserializer &dr, Line &l) {
        l.dirty = dr.boolean();
    });
    hits.set(d.u64());
    misses.set(d.u64());
    readMisses.set(d.u64());
    writebacksToMs.set(d.u64());
    const double rml_sum = d.f64();
    readMissLatency.restoreState(rml_sum, d.u64());
}

} // namespace dapsim
