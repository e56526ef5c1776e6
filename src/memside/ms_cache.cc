#include "memside/ms_cache.hh"

#include <utility>

namespace dapsim
{

MemSideCache::MemSideCache(EventQueue &eq, DramSystem &main_memory,
                           PartitionPolicy &policy)
    : eq_(eq), mm_(main_memory), policy_(policy)
{
}

MemSideCache::~MemSideCache() = default;

void
MemSideCache::startWindows(Cycle window_cycles)
{
    if (windowsRunning_)
        return;
    windowsRunning_ = true;
    windowCycles_ = window_cycles;
    eq_.scheduleAfter(
        cpuCyclesToTicks(windowCycles_),
        EventQueue::Callback::of<&MemSideCache::windowTick>(this));
}

void
MemSideCache::stopWindows()
{
    windowsRunning_ = false;
}

void
MemSideCache::windowTick()
{
    if (!windowsRunning_)
        return;
    policy_.beginWindow(window_);
    window_ = WindowCounters{};
    for (Addr page : policy_.collectCleaningRequests())
        cleanRegion(page);
    for (std::uint64_t set : policy_.collectSetsToFlush())
        flushSetImpl(set);
    eq_.scheduleAfter(
        cpuCyclesToTicks(windowCycles_),
        EventQueue::Callback::of<&MemSideCache::windowTick>(this));
}

void
MemSideCache::memAccess(Addr addr, bool is_write, Done done,
                        bool low_priority)
{
    if (remote_ && policy_.shouldRouteToRemote(addr)) {
        window_.aRemote++;
        remote_->access(addr, is_write, std::move(done));
        return;
    }
    mm_.access(addr, is_write, std::move(done), 0, low_priority);
}

std::uint32_t
MemSideCache::parkRead(Done done)
{
    return reads_.put(ParkedRead{std::move(done)});
}

void
MemSideCache::speculate(std::uint32_t slot, Addr addr)
{
    reads_[slot].fetching = true;
    memAccess(addr, false, [this, slot] { fetchReturned(slot); });
}

void
MemSideCache::fetchReturned(std::uint32_t slot)
{
    ParkedRead &r = reads_[slot];
    r.fetched = true;
    if (r.fired)
        reads_.release(slot);
    else if (r.waiting)
        finishRead(slot);
    // Otherwise the lookup is unresolved or completes elsewhere.
}

void
MemSideCache::serveFromFetch(std::uint32_t slot)
{
    if (reads_[slot].fetched)
        finishRead(slot);
    else
        reads_[slot].waiting = true;
}

void
MemSideCache::finishRead(std::uint32_t slot)
{
    ParkedRead &r = reads_[slot];
    Done done = std::move(r.done);
    if (r.fetching && !r.fetched)
        r.fired = true; // fetchReturned() recycles the slot
    else
        reads_.release(slot);
    if (done)
        done();
}

MemSideCache::Done
MemSideCache::takeRead(std::uint32_t slot)
{
    return reads_.take(slot).done;
}

void
MemSideCache::saveBase(ckpt::Serializer &s) const
{
    if (windowsRunning_)
        throw ckpt::CkptError(
            "ckpt: MS$ window machinery running; checkpoints must be "
            "taken before the timed run");
    s.u64(window_.aMs);
    s.u64(window_.aMsRead);
    s.u64(window_.aMsWrite);
    s.u64(window_.aMm);
    s.u64(window_.readMisses);
    s.u64(window_.writes);
    s.u64(window_.cleanHits);
    s.u64(window_.lookups);
    s.u64(window_.hits);
    s.u64(readHits.value());
    s.u64(readMisses.value());
    s.u64(writeHits.value());
    s.u64(writeMisses.value());
    s.u64(cleanReadHits.value());
    s.u64(fills.value());
    s.u64(fillsBypassed.value());
    s.u64(writesBypassed.value());
    s.u64(forcedReadMisses.value());
    s.u64(speculativeReads.value());
    s.u64(speculativeWasted.value());
    s.u64(sectorEvictions.value());
    s.u64(dirtyWritebacks.value());
    // Appended only when a remote tier exists so 2-tier checkpoints
    // keep their exact historical byte layout.
    if (remote_ != nullptr)
        s.u64(window_.aRemote);
}

void
MemSideCache::restoreBase(ckpt::Deserializer &d)
{
    if (windowsRunning_)
        throw ckpt::CkptError(
            "ckpt: cannot restore into an MS$ with windows running");
    window_.aMs = d.u64();
    window_.aMsRead = d.u64();
    window_.aMsWrite = d.u64();
    window_.aMm = d.u64();
    window_.readMisses = d.u64();
    window_.writes = d.u64();
    window_.cleanHits = d.u64();
    window_.lookups = d.u64();
    window_.hits = d.u64();
    readHits.set(d.u64());
    readMisses.set(d.u64());
    writeHits.set(d.u64());
    writeMisses.set(d.u64());
    cleanReadHits.set(d.u64());
    fills.set(d.u64());
    fillsBypassed.set(d.u64());
    writesBypassed.set(d.u64());
    forcedReadMisses.set(d.u64());
    speculativeReads.set(d.u64());
    speculativeWasted.set(d.u64());
    sectorEvictions.set(d.u64());
    dirtyWritebacks.set(d.u64());
    if (remote_ != nullptr)
        window_.aRemote = d.u64();
}

} // namespace dapsim
