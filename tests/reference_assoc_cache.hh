/**
 * @file
 * Reference set-associative directory: the original AoS implementation.
 *
 * This is the pre-SoA `AssocCache` implementation, frozen verbatim as
 * the behavioural oracle for the data-layout rewrite. The differential
 * fuzz test (test_assoc_cache_diff.cc) replays randomized access
 * streams through this array-of-structures directory and the
 * production SoA one and asserts identical hits, victims, occupancy
 * and checkpoint bytes; bench/kernel_events.cpp uses it as the
 * "before" side of the per-access microbenchmarks.
 *
 * Do not optimise or otherwise modify the replacement logic: its value
 * is that it implements the replacement contract (invalid-way-first,
 * NRU clear-on-saturation, LRU with lowest-way-wins ties) in the most
 * obviously correct way. save()/restore() follow the production
 * checkpoint layout, element by element.
 */

#ifndef DAPSIM_TESTS_REFERENCE_ASSOC_CACHE_HH
#define DAPSIM_TESTS_REFERENCE_ASSOC_CACHE_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "cache/assoc_cache.hh" // ReplPolicy
#include "ckpt/serializer.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace dapsim
{

/**
 * Array-of-structures set-associative tag directory (reference).
 *
 * @tparam Value per-line metadata (dirty bits, sector bitmaps, ...).
 */
template <typename Value>
class RefAssocCache
{
  public:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool nruRef = false;
        std::uint64_t lastUse = 0;
        Value value{};
    };

    RefAssocCache(std::uint64_t sets, std::uint32_t ways,
                  ReplPolicy policy = ReplPolicy::LRU)
        : sets_(sets), ways_(ways), policy_(policy),
          lines_(sets * ways)
    {
        if (sets == 0 || ways == 0)
            fatal("RefAssocCache: zero geometry");
    }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }

    /** Find a line; returns nullptr on miss. Does not update recency. */
    Value *
    find(std::uint64_t set, std::uint64_t tag)
    {
        Line *l = findLine(set, tag);
        return l ? &l->value : nullptr;
    }

    const Value *
    find(std::uint64_t set, std::uint64_t tag) const
    {
        auto *self = const_cast<RefAssocCache *>(this);
        return self->find(set, tag);
    }

    /** Mark a resident line as recently used. */
    void
    touch(std::uint64_t set, std::uint64_t tag)
    {
        Line *l = findLine(set, tag);
        if (l == nullptr)
            return;
        l->nruRef = true;
        l->lastUse = ++useClock_;
        // NRU: when every line in the set is referenced, clear the
        // others so a victim always exists.
        if (policy_ == ReplPolicy::NRU && allReferenced(set)) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                Line &o = at(set, w);
                if (&o != l)
                    o.nruRef = false;
            }
        }
    }

    /** Evicted-line report from insert(). */
    struct Victim
    {
        bool valid = false;
        std::uint64_t tag = 0;
        Value value{};
    };

    /**
     * Insert a line (must not already be resident); returns the victim.
     * The new line is marked most-recently-used.
     */
    Victim
    insert(std::uint64_t set, std::uint64_t tag, Value v)
    {
        if (findLine(set, tag) != nullptr)
            panic("RefAssocCache: duplicate insert");
        Line &slot = victimLine(set);
        Victim out;
        if (slot.valid) {
            out.valid = true;
            out.tag = slot.tag;
            out.value = std::move(slot.value);
        }
        slot.tag = tag;
        slot.valid = true;
        slot.value = std::move(v);
        slot.nruRef = false; // inserted lines start not-recently-used (NRU)
        slot.lastUse = ++useClock_;
        if (policy_ == ReplPolicy::LRU)
            slot.nruRef = true;
        return out;
    }

    /** Remove a line if present. @return true if it was resident. */
    bool
    erase(std::uint64_t set, std::uint64_t tag)
    {
        Line *l = findLine(set, tag);
        if (l == nullptr)
            return false;
        l->valid = false;
        l->nruRef = false;
        return true;
    }

    /** Invalidate an entire set, invoking @p fn on each valid line. */
    void
    flushSet(std::uint64_t set,
             const std::function<void(std::uint64_t, Value &)> &fn)
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &l = at(set, w);
            if (l.valid) {
                fn(l.tag, l.value);
                l.valid = false;
                l.nruRef = false;
            }
        }
    }

    /** Visit every valid line (tests, flushes). */
    void
    forEach(const std::function<void(std::uint64_t, std::uint64_t,
                                     Value &)> &fn)
    {
        for (std::uint64_t s = 0; s < sets_; ++s)
            for (std::uint32_t w = 0; w < ways_; ++w) {
                Line &l = at(s, w);
                if (l.valid)
                    fn(s, l.tag, l.value);
            }
    }

    /** Number of valid lines in a set. */
    std::uint32_t
    occupancy(std::uint64_t set) const
    {
        std::uint32_t n = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (at(set, w).valid)
                ++n;
        return n;
    }

    /**
     * Checkpoint encode in the production directory's layout (see
     * assoc_cache.hh), written one element at a time: the geometry and
     * use clock; every line's tag; the valid and NRU bits packed one
     * word per set; every line's lastUse; then a raw-values flag and
     * the values, as raw bytes when kRawValues, else via
     * @p save_value.
     */
    template <typename SaveValue>
    void
    save(ckpt::Serializer &s, SaveValue &&save_value) const
    {
        s.u64(sets_);
        s.u32(ways_);
        s.u32(static_cast<std::uint32_t>(policy_));
        s.u64(useClock_);
        for (const Line &l : lines_)
            s.u64(l.tag);
        for (std::uint64_t set = 0; set < sets_; ++set)
            s.u64(packBits(set, &Line::valid));
        for (std::uint64_t set = 0; set < sets_; ++set)
            s.u64(packBits(set, &Line::nruRef));
        for (const Line &l : lines_)
            s.u64(l.lastUse);
        s.u8(kRawValues ? 1 : 0);
        for (const Line &l : lines_) {
            if constexpr (kRawValues)
                s.raw(&l.value, sizeof(Value));
            else
                save_value(s, l.value);
        }
    }

    template <typename RestoreValue>
    void
    restore(ckpt::Deserializer &d, RestoreValue &&restore_value)
    {
        if (d.u64() != sets_ || d.u32() != ways_ ||
            d.u32() != static_cast<std::uint32_t>(policy_))
            throw ckpt::CkptError(
                "ckpt: cache directory geometry mismatch");
        useClock_ = d.u64();
        for (Line &l : lines_)
            l.tag = d.u64();
        for (std::uint64_t set = 0; set < sets_; ++set)
            unpackBits(set, &Line::valid, d.u64());
        for (std::uint64_t set = 0; set < sets_; ++set)
            unpackBits(set, &Line::nruRef, d.u64());
        for (Line &l : lines_)
            l.lastUse = d.u64();
        if ((d.u8() != 0) != kRawValues)
            throw ckpt::CkptError("ckpt: value encoding mismatch");
        for (Line &l : lines_) {
            if constexpr (kRawValues)
                d.raw(&l.value, sizeof(Value));
            else
                restore_value(d, l.value);
        }
    }

  private:
    /** The production rule for writing values as raw bytes. */
    static constexpr bool kRawValues =
        std::has_unique_object_representations_v<Value> &&
        std::is_trivially_copyable_v<Value> &&
        ckpt::kHostIsLittleEndian;

    /** One bit per way of @p set: way w's @p field in bit w. */
    std::uint64_t
    packBits(std::uint64_t set, bool Line::*field) const
    {
        std::uint64_t bits = 0;
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (at(set, w).*field)
                bits |= std::uint64_t(1) << w;
        return bits;
    }

    void
    unpackBits(std::uint64_t set, bool Line::*field, std::uint64_t bits)
    {
        for (std::uint32_t w = 0; w < ways_; ++w)
            at(set, w).*field = (bits >> w) & 1;
    }

    Line &
    at(std::uint64_t set, std::uint32_t way)
    {
        return lines_[set * ways_ + way];
    }

    const Line &
    at(std::uint64_t set, std::uint32_t way) const
    {
        return lines_[set * ways_ + way];
    }

    Line *
    findLine(std::uint64_t set, std::uint64_t tag)
    {
        if (set >= sets_)
            panic("RefAssocCache: set out of range");
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Line &l = at(set, w);
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    bool
    allReferenced(std::uint64_t set) const
    {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line &l = at(set, w);
            if (l.valid && !l.nruRef)
                return false;
        }
        return true;
    }

    Line &
    victimLine(std::uint64_t set)
    {
        // Invalid line first.
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (!at(set, w).valid)
                return at(set, w);
        if (policy_ == ReplPolicy::NRU) {
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (!at(set, w).nruRef)
                    return at(set, w);
            // All referenced: clear and take way 0.
            for (std::uint32_t w = 0; w < ways_; ++w)
                at(set, w).nruRef = false;
            return at(set, 0);
        }
        // LRU; strict < keeps the lowest way on lastUse ties.
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (at(set, w).lastUse < oldest) {
                oldest = at(set, w).lastUse;
                victim = w;
            }
        }
        return at(set, victim);
    }

    std::uint64_t sets_;
    std::uint32_t ways_;
    ReplPolicy policy_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_TESTS_REFERENCE_ASSOC_CACHE_HH
