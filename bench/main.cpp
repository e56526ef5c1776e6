// The main() of every figure binary and of `paper`: CMake defines
// DAPSIM_BENCH_FIGURE as the binary's name (see harness.cc).

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    return dapsim::bench::runFigures(DAPSIM_BENCH_FIGURE, argc, argv);
}
