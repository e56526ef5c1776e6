/**
 * @file
 * Self-Balancing Dispatch (SBD), Sim et al. MICRO 2012, as described in
 * the paper's Section VI-A.4.
 *
 * SBD steers each access to the source with the lowest expected service
 * latency. To make steering safe, it tracks highly-written 4 KB pages
 * in a Dirty List (backed by a bank of counting Bloom filters); pages
 * outside the list operate in write-through mode so their memory copy
 * is always current. When a page falls out of the Dirty List it must be
 * force-cleaned (dirty blocks read out of the cache and written to
 * memory) — the behaviour responsible for SBD's losses on large caches.
 * The SBD-WT variant skips forced cleaning and relies on write-through
 * alone.
 */

#ifndef DAPSIM_POLICIES_SBD_HH
#define DAPSIM_POLICIES_SBD_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/bloom.hh"
#include "common/stats.hh"
#include "policies/partition_policy.hh"

namespace dapsim
{

struct SbdConfig
{
    std::uint64_t pageBytes = 4 * kKiB;
    std::size_t dirtyListCapacity = 512;
    std::size_t bloomBuckets = 8192;
    unsigned bloomHashes = 3;
    /** Write-frequency estimate required to enter the Dirty List. */
    std::uint8_t writeThreshold = 4;
    /** Halve the Bloom counters every this many windows. */
    std::uint64_t decayWindows = 4096;
    /** SBD-WT: no forced cleaning when a page leaves the Dirty List. */
    bool writeThroughOnly = false;
};

/** SBD / SBD-WT policy. */
class SbdPolicy final : public PartitionPolicy
{
  public:
    explicit SbdPolicy(const SbdConfig &cfg);

    void beginWindow(const WindowCounters &) override;
    bool steerToMemory(Addr addr, const SteerInfo &info) override;
    bool shouldWriteThrough(Addr addr) override;
    void noteWrite(Addr addr) override;
    std::vector<Addr> collectCleaningRequests() override;

    const char *
    name() const override
    {
        return cfg_.writeThroughOnly ? "sbd-wt" : "sbd";
    }

    bool inDirtyList(Addr addr) const;

    void save(ckpt::Serializer &s) const override;
    void restore(ckpt::Deserializer &d) override;

    Counter steersToMemory;
    Counter pagesCleaned;

  private:
    std::uint64_t pageOf(Addr a) const { return a / cfg_.pageBytes; }

    /** Insert a page; evicts the LRU page when at capacity. */
    void insertDirtyPage(std::uint64_t page);

    SbdConfig cfg_;
    CountingBloom bloom_;

    // LRU Dirty List: list front = most recent.
    std::list<std::uint64_t> dirtyLru_;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> dirtyMap_;

    std::vector<Addr> pendingCleans_;
    std::uint64_t windowCount_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_POLICIES_SBD_HH
