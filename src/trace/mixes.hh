/**
 * @file
 * Multi-programmed mix construction (paper Section V).
 *
 * 17 homogeneous rate-8 mixes (eight copies of one snippet) plus 27
 * eight-way heterogeneous mixes, built deterministically so that
 * roughly half combine snippets of similar bandwidth-sensitivity and
 * the rest combine dissimilar ones — 44 mixes in total.
 */

#ifndef DAPSIM_TRACE_MIXES_HH
#define DAPSIM_TRACE_MIXES_HH

#include <string>
#include <vector>

#include "trace/workloads.hh"

namespace dapsim
{

/** An N-way multi-programmed mix. */
struct Mix
{
    std::string name;
    std::vector<WorkloadProfile> apps; ///< one per core
    enum class Kind
    {
        Sensitive,   ///< homogeneous, bandwidth-sensitive
        Insensitive, ///< homogeneous, bandwidth-insensitive
        Hetero,
    } kind = Kind::Hetero;
};

/** Rate-N mix of one workload. */
Mix rateMix(const WorkloadProfile &w, std::uint32_t copies);

/** The 27 deterministic heterogeneous eight-way mixes. */
std::vector<Mix> heterogeneousMixes();

/** All 44 mixes: 12 sensitive + 5 insensitive + 27 heterogeneous. */
std::vector<Mix> allMixes();

} // namespace dapsim

#endif // DAPSIM_TRACE_MIXES_HH
