/**
 * @file
 * Access-stream generator interface.
 *
 * Generators stand in for the paper's SPEC CPU 2006 / HPCG / Parboil
 * snippets: they produce the L2-miss stream (reads plus L2 dirty
 * writebacks) a core feeds into the shared L3, parameterized to match
 * each benchmark's reported MPKI, footprint, read/write mix and
 * spatial locality. Streams are endless (rate mode re-runs them) and
 * fully deterministic given a seed.
 */

#ifndef DAPSIM_TRACE_ACCESS_GEN_HH
#define DAPSIM_TRACE_ACCESS_GEN_HH

#include <cstddef>
#include <memory>

#include "ckpt/serializer.hh"
#include "common/log.hh"
#include "cpu/rob_core.hh"

namespace dapsim
{

/** Abstract endless access-stream generator. */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Produce the next request. Never ends (returns true). */
    virtual bool next(TraceRequest &out) = 0;

    /**
     * Warm draw: write the next @p n requests' address and direction
     * to out[0], out[stride], ..., out[(n - 1) * stride], leaving the
     * generator exactly where @p n next() calls would (same cursor,
     * same Rng state, same checkpoint bytes). Instruction gaps are
     * not computed; functional warm-up discards them. One virtual call
     * fills a whole strided chunk. The default loops over next() and
     * panics if a stream ends, which the next() contract rules out.
     */
    virtual void drawWarm(WarmAccess *out, std::size_t n,
                          std::size_t stride);

    /**
     * Checkpoint the stream cursor (see src/ckpt/) so a restored run
     * resumes the exact same request sequence. Stateless generators
     * keep the empty default.
     */
    virtual void save(ckpt::Serializer &) const {}
    virtual void restore(ckpt::Deserializer &) {}
};

inline void
AccessGenerator::drawWarm(WarmAccess *out, std::size_t n,
                          std::size_t stride)
{
    TraceRequest req;
    for (std::size_t i = 0; i < n; ++i, out += stride) {
        if (!next(req))
            panic("AccessGenerator: next() ended an endless stream");
        *out = {req.addr, req.isWrite};
    }
}

/**
 * next() and drawWarm() for a generator that implements both with one
 * private member, `template <bool kGap> WarmAccess draw(std::uint64_t
 * &gap)` (befriend this class): draw<true> stores the instruction
 * gap, draw<false> only advances the Rng past it (Rng::skipGap). The
 * timed and the warm stream therefore cannot drift apart.
 */
template <typename Derived>
class DrawnGenerator : public AccessGenerator
{
  public:
    bool
    next(TraceRequest &out) final
    {
        const WarmAccess a = self().template draw<true>(out.instrGap);
        out.addr = a.addr;
        out.isWrite = a.isWrite;
        return true;
    }

    void
    drawWarm(WarmAccess *out, std::size_t n, std::size_t stride) final
    {
        std::uint64_t unused = 0;
        for (std::size_t i = 0; i < n; ++i, out += stride)
            *out = self().template draw<false>(unused);
    }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
};

using AccessGeneratorPtr = std::unique_ptr<AccessGenerator>;

} // namespace dapsim

#endif // DAPSIM_TRACE_ACCESS_GEN_HH
