/**
 * @file
 * Minimal logging / error helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal simulator invariant was violated (a dapsim bug).
 * fatal()  — the user supplied an impossible configuration.
 * warn()   — something is modelled approximately; simulation continues.
 */

#ifndef DAPSIM_COMMON_LOG_HH
#define DAPSIM_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace dapsim
{

[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace dapsim

#endif // DAPSIM_COMMON_LOG_HH
