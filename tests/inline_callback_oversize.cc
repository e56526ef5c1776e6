/**
 * @file
 * Must not compile: a 72-byte capture is past InlineCallback's 64-byte
 * buffer. The InlineCallback.OversizedCaptureIsACompileError ctest
 * builds this file and passes only when the build fails on the
 * static_assert that names SlotPool.
 */

#include <array>
#include <cstdint>

#include "common/inline_callback.hh"

void
captureSeventyTwoBytes()
{
    std::array<std::uint64_t, 9> payload{};
    static_assert(sizeof(payload) == 72);
    dapsim::InlineCallback cb([payload] { (void)payload; });
    cb();
}
