/**
 * @file
 * trace_gen — export synthetic workloads as trace files.
 *
 * Produces dapsim trace files (see trace/trace_file.hh for the format)
 * from the named synthetic profiles or from workload-engine specs
 * (zipf:skew=0.99,fp=64M — see src/workload/spec.hh), so users can
 * inspect the streams the simulator runs, post-process them with
 * standard tools, or replay them through `dapsim --trace`.
 *
 * Usage: trace_gen [--list] <workload-or-spec> <records> [out.trace]
 *                  [seed]
 */

#include <cctype>
#include <cstdio>
#include <string>

#include "common/log.hh"
#include "common/parse_number.hh"
#include "trace/trace_file.hh"
#include "workload/compose.hh"
#include "workload/spec.hh"

using namespace dapsim;

namespace
{

void
listWorkloads()
{
    std::printf("profiles:\n");
    for (const auto &w : allWorkloads())
        std::printf("  %-18s fp=%lluM hot=%.2f p=%.2f stream=%.2f "
                    "run=%.1f write=%.2f mpki=%.0f\n",
                    w.name.c_str(),
                    static_cast<unsigned long long>(
                        w.params.footprintBytes / kMiB),
                    w.params.hotFraction, w.params.hotProbability,
                    w.params.streamFraction, w.params.runLength,
                    w.params.writeFraction, w.params.mpki);
    std::printf("workload-engine specs (kind:key=value,...):\n");
    for (const auto &info : workload::specInfos()) {
        std::printf("  %-18s %s\n", info.kind, info.help);
        for (const auto &p : info.params)
            std::printf("    %-16s %s\n", p.key, p.help);
    }
}

/** Filesystem-safe default output name for spec workloads. */
std::string
defaultOut(const std::string &workload)
{
    std::string out = workload;
    for (char &c : out)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
              c == '.'))
            c = '_';
    return out + ".trace";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::string(argv[1]) == "--list") {
        listWorkloads();
        return 0;
    }
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: trace_gen [--list] <workload-or-spec> "
                     "<records> [out.trace] [seed]\n"
                     "       trace_gen --list   show profiles and spec "
                     "schemas\n");
        return 1;
    }
    auto count = [](const char *param, const std::string &text) {
        if (const auto v = parseUnsigned(text))
            return *v;
        fatal(std::string("trace_gen: ") + param +
              " expects an unsigned decimal integer, got '" + text + "'");
    };
    const std::string name = argv[1];
    const std::uint64_t n = count("<records>", argv[2]);
    const std::string out = argc > 3 ? argv[3] : defaultOut(name);
    const std::uint64_t seed = argc > 4 ? count("[seed]", argv[4]) : 0;

    // Compose onto one core: the emitted stream is exactly what core 0
    // of a rate mix of this workload would issue. Mix specs work too —
    // core 0 runs the first tenant.
    const workload::ComposedMix cm =
        workload::composeWorkload(name, 1);
    auto gen = makeGenerator(cm.mix.apps[0], 0, seed);

    const std::uint64_t written = writeTraceFile(out, *gen, n);
    std::printf("wrote %llu records of '%s' to %s\n",
                static_cast<unsigned long long>(written),
                cm.mix.name.c_str(), out.c_str());
    return 0;
}
