/**
 * @file
 * Must not compile: a `std::string` capture fits InlineCallback's
 * 64-byte buffer but is not trivially copyable. The
 * InlineCallback.NonTrivialCaptureIsACompileError ctest builds this
 * file and passes only when the build fails on the static_assert that
 * names SlotPool.
 */

#include <string>

#include "common/inline_callback.hh"

void
captureAString()
{
    std::string name = "parked elsewhere";
    static_assert(sizeof(name) <= dapsim::kInlineCallbackBytes);
    dapsim::InlineCallback cb([name] { (void)name.size(); });
    cb();
}
