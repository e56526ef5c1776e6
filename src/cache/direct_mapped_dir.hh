/**
 * @file
 * Direct-mapped tag directory: one 64-bit word per set.
 *
 * The Alloy cache is direct-mapped (paper Sections II, IV-B): each set
 * is one tag-and-data unit with no replacement state, so its directory
 * needs only the resident block's tag, a valid bit and a dirty bit.
 * All three fit one word. A tag is a block number (an address shifted
 * right by kBlockShift), so it is below 2^58 and the top bits are
 * free:
 *
 *     bit 63 valid | bit 62 dirty | bits 58-61 zero | bits 0-57 tag
 *
 * There is no LRU stamp, use clock, NRU word or way mask: no decision
 * of a one-way set reads them. Contract (pinned against a one-way LRU
 * AssocCache by tests/test_direct_mapped_dir.cc): insert() replaces
 * whatever the set holds and reports it as the victim, a new line
 * starts clean, and a filled set is never invalidated.
 *
 * The checkpoint is the set count and the word array, one u64 span;
 * restore() refuses a word no run can leave (see there).
 */

#ifndef DAPSIM_CACHE_DIRECT_MAPPED_DIR_HH
#define DAPSIM_CACHE_DIRECT_MAPPED_DIR_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace dapsim
{

class DirectMappedDir
{
  public:
    static constexpr std::uint64_t kValid = std::uint64_t(1) << 63;
    static constexpr std::uint64_t kDirty = std::uint64_t(1) << 62;
    /** Largest tag: a block number of a 64-bit address. */
    static constexpr std::uint64_t kTagMask =
        (std::uint64_t(1) << (64 - kBlockShift)) - 1;

    explicit DirectMappedDir(std::uint64_t sets)
        : words_(sets, 0),
          setMask_((sets & (sets - 1)) == 0 ? sets - 1 : 0)
    {
        if (sets == 0)
            fatal("DirectMappedDir: zero sets");
    }

    /** @p x reduced modulo the set count: a mask for power-of-two
     *  counts, a divide otherwise. */
    std::uint64_t
    mapSet(std::uint64_t x) const
    {
        return setMask_ != 0 ? (x & setMask_) : (x % words_.size());
    }

    /** True when @p set holds @p tag. */
    bool
    holds(std::uint64_t set, std::uint64_t tag) const
    {
        return (words_[set] & ~kDirty) == (kValid | tag);
    }

    /** Dirty bit of the line @p set holds (false when it holds none). */
    bool
    dirty(std::uint64_t set) const
    {
        return (words_[set] & kDirty) != 0;
    }

    /** Set or clear the dirty bit of the line @p set holds. */
    void
    setDirty(std::uint64_t set, bool dirty)
    {
        words_[set] = (words_[set] & ~kDirty) | (dirty ? kDirty : 0);
    }

    /** The line insert() replaced. */
    struct Victim
    {
        bool valid = false;
        std::uint64_t tag = 0;
        bool dirty = false;
    };

    /** Install @p tag, clean, over whatever @p set holds; @p tag must
     *  not be resident (holds() just said so). */
    Victim
    insert(std::uint64_t set, std::uint64_t tag)
    {
        if (tag > kTagMask)
            panic("DirectMappedDir: tag is not a block number");
        const std::uint64_t old = words_[set];
        words_[set] = kValid | tag;
        return {(old & kValid) != 0, old & kTagMask, (old & kDirty) != 0};
    }

    /** Hint the hardware to fetch @p set's word ahead of an access
     *  (no architectural effect). */
    void
    prefetch(std::uint64_t set) const
    {
        __builtin_prefetch(&words_[set]);
    }

    void
    save(ckpt::Serializer &s) const
    {
        s.u64(words_.size());
        s.u64Span(words_.data(), words_.size());
    }

    /**
     * Read back what save() wrote into a directory of the same set
     * count. @p set_of maps a tag to the set it belongs in. Throws
     * CkptError naming the first set whose word no run can leave: a
     * bit outside tag, valid and dirty; a dirty bit on an invalid set;
     * or a valid tag that @p set_of puts in another set.
     */
    template <typename SetOf>
    void
    restore(ckpt::Deserializer &d, SetOf &&set_of)
    {
        if (d.u64() != words_.size())
            throw ckpt::CkptError(
                "ckpt: direct-mapped directory set count mismatch");
        d.u64Span(words_.data(), words_.size());
        for (std::uint64_t set = 0; set < words_.size(); ++set) {
            const std::uint64_t w = words_[set];
            const bool valid = (w & kValid) != 0;
            const std::uint64_t home = set_of(w & kTagMask);
            if ((w & kReserved) != 0 || (!valid && (w & kDirty) != 0) ||
                (valid && home != set))
                throw ckpt::CkptError(fault(set, w, home));
        }
    }

  private:
    static constexpr std::uint64_t kReserved =
        ~(kValid | kDirty | kTagMask);

    /** restore()'s message for the word @p w of @p set, whose tag
     *  belongs in set @p home. */
    static std::string
    fault(std::uint64_t set, std::uint64_t w, std::uint64_t home)
    {
        char word[24];
        std::snprintf(word, sizeof(word), "%#llx",
                      static_cast<unsigned long long>(w));
        std::string why = "holds a tag of set " + std::to_string(home);
        if ((w & kReserved) != 0)
            why = "has bits outside tag, valid and dirty";
        else if ((w & kValid) == 0)
            why = "is dirty but not valid";
        return "ckpt: direct-mapped directory set " + std::to_string(set) +
               " " + why + " (word " + word + ")";
    }

    /** Per set: valid, dirty and tag (see the file comment). */
    std::vector<std::uint64_t> words_;
    /** Set count - 1 when it is a power of two, else 0 (see mapSet). */
    std::uint64_t setMask_;
};

} // namespace dapsim

#endif // DAPSIM_CACHE_DIRECT_MAPPED_DIR_HH
