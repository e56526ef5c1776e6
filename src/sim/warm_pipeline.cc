#include "sim/warm_pipeline.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <thread>

namespace dapsim
{

namespace
{

/**
 * Single-producer, single-consumer ring of fixed-capacity record
 * chunks. The producer fills the chunk acquire() returns and
 * publish()es it; the consumer reads the chunk next() returns and
 * release()s it. The lock is taken once per chunk on each side; the
 * chunk contents themselves are written and read outside it, handed
 * over by the publish/next and release/acquire pairs.
 */
class ChunkRing
{
  public:
    ChunkRing(std::size_t chunks, std::size_t capacity)
        : cap_(capacity), buf_(chunks * capacity), size_(chunks)
    {
    }

    std::size_t capacity() const { return cap_; }

    /** Producer: wait for a free chunk; nullptr once aborted. */
    WarmAccess *
    acquire()
    {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] {
            return aborted_ || tail_ - head_ < size_.size();
        });
        return aborted_ ? nullptr : &buf_[slot(tail_) * cap_];
    }

    /** Producer: hand the acquired chunk, holding @p n > 0 records,
     *  to the consumer. */
    void
    publish(std::size_t n)
    {
        {
            std::lock_guard lk(mu_);
            size_[slot(tail_)] = n;
            ++tail_;
        }
        cv_.notify_one();
    }

    /** Producer: no chunk follows the last published one. */
    void
    close()
    {
        {
            std::lock_guard lk(mu_);
            closed_ = true;
        }
        cv_.notify_one();
    }

    /** Consumer: wait for the next chunk; empty once the ring is
     *  closed and drained, or aborted. */
    std::span<const WarmAccess>
    next()
    {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] {
            return aborted_ || closed_ || head_ != tail_;
        });
        if (aborted_ || head_ == tail_)
            return {};
        return {&buf_[slot(head_) * cap_], size_[slot(head_)]};
    }

    /** Consumer: done with the chunk next() returned. */
    void
    release()
    {
        {
            std::lock_guard lk(mu_);
            ++head_;
        }
        cv_.notify_one();
    }

    /** Stop both sides: a stage failed. */
    void
    abort()
    {
        {
            std::lock_guard lk(mu_);
            aborted_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::size_t slot(std::uint64_t seq) const { return seq % size_.size(); }

    const std::size_t cap_;
    /** The chunks; each belongs to one side at a time, so its records
     *  need no lock. */
    std::vector<WarmAccess> buf_;
    /** Guards size_, head_, tail_, closed_ and aborted_. */
    std::mutex mu_;
    std::condition_variable cv_;
    /** Records in each published chunk. */
    std::vector<std::size_t> size_;
    /** Chunks released / published so far. */
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    bool closed_ = false;
    bool aborted_ = false;
};

} // namespace

void
runWarmPipeline(std::vector<AccessGeneratorPtr> &gens, L3Cache &l3,
                MemSideCache &ms, std::uint64_t per_core)
{
    const std::size_t cores = gens.size();
    if (per_core == 0 || cores == 0)
        return;
    const std::uint64_t rounds =
        std::max<std::size_t>(1, kWarmChunkRecords / cores);
    ChunkRing drawn(kWarmRingChunks, rounds * cores);
    ChunkRing to_ms(kWarmRingChunks, kWarmChunkRecords);

    std::mutex error_mu;
    std::exception_ptr error;
    auto guarded = [&](auto &&stage) {
        try {
            stage();
        } catch (...) {
            {
                std::lock_guard lk(error_mu);
                if (!error)
                    error = std::current_exception();
            }
            drawn.abort();
            to_ms.abort();
        }
    };

    // Generators: one strided warm draw per core per chunk, so record
    // (round k, core i) lands at k * cores + i.
    auto generate = [&] {
        for (std::uint64_t done = 0; done < per_core;) {
            const std::uint64_t r = std::min(rounds, per_core - done);
            WarmAccess *chunk = drawn.acquire();
            if (chunk == nullptr)
                return;
            for (std::size_t i = 0; i < cores; ++i)
                gens[i]->drawWarm(chunk + i, r, cores);
            drawn.publish(r * cores);
            done += r;
        }
        drawn.close();
    };

    // L3: each record's MS$ warm stream (dirty victim, then read miss)
    // goes into the current output chunk, published when it is full.
    auto filter = [&] {
        WarmAccess *out = to_ms.acquire();
        std::size_t n = 0;
        for (auto in = drawn.next(); out != nullptr && !in.empty();
             in = drawn.next()) {
            for (const WarmAccess &a : in) {
                if (n + 2 > to_ms.capacity()) {
                    to_ms.publish(n);
                    n = 0;
                    if ((out = to_ms.acquire()) == nullptr)
                        return;
                }
                const L3Cache::WarmFlow f = l3.warmFlow(a.addr, a.isWrite);
                if (f.writeback)
                    out[n++] = {f.victimAddr, true};
                if (f.readMiss)
                    out[n++] = {a.addr, false};
            }
            drawn.release();
        }
        if (n > 0)
            to_ms.publish(n);
        to_ms.close();
    };

    // MS$: applies the stream on the calling thread.
    auto apply = [&] {
        for (auto in = to_ms.next(); !in.empty(); in = to_ms.next()) {
            ms.warmApply(in.data(), in.size());
            to_ms.release();
        }
    };

    std::thread gen_thread;
    std::thread l3_thread;
    try {
        gen_thread = std::thread([&] { guarded(generate); });
        l3_thread = std::thread([&] { guarded(filter); });
    } catch (...) {
        drawn.abort();
        to_ms.abort();
        if (gen_thread.joinable())
            gen_thread.join();
        throw;
    }
    guarded(apply);
    gen_thread.join();
    l3_thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace dapsim
