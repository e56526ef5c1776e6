#!/bin/sh
# Profile the timed path of a DAP run of the fig12 8-app mix with
# gprofng (binutils; `perf` is not assumed). Builds the Release tree if
# needed, saves the post-warm-up checkpoint once (`--instr 1
# --save-ckpt`), then records one `dapsim --restore-ckpt` run, so the
# profile holds the timed simulation and not the warm-up. Prints the
# hottest functions.
#
# Usage: tools/profile.sh [INSTR] [BUILD_DIR]
#   INSTR     instructions per core of the recorded run (default
#             8000000, ~7 s on a 4-vCPU Xeon VM; more instructions,
#             more samples)
#   BUILD_DIR Release build directory (default build-rel)
#
# Output: gprofng experiment under ./prof-e2e.er (overwritten) and a
# function-level CPU-time table on stdout. Drill down with e.g.
#   gprofng display text -calltree prof-e2e.er
#   gprofng display text -source dapsim::Channel::kick prof-e2e.er

set -eu

INSTR="${1:-8000000}"
BUILD="${2:-build-rel}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/$BUILD/tools/dapsim"
EXP="$ROOT/prof-e2e.er"
MIX="mix:t0=mcf,t1=libquantum,t2=omnetpp,t3=milc,t4=hpcg,t5=bwaves,t6=gcc.expr,t7=parboil-lbm"

command -v gprofng >/dev/null 2>&1 || {
    echo "profile.sh: gprofng not found (install binutils)" >&2
    exit 1
}

if [ ! -x "$BIN" ]; then
    echo "profile.sh: building $BUILD (Release) ..." >&2
    cmake -B "$ROOT/$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$ROOT/$BUILD" --target dapsim_cli -j "$(nproc)"
fi

CKPT="$(mktemp -t profile.XXXXXX)"
trap 'rm -f "$CKPT"' EXIT
"$BIN" --workload "$MIX" --policy dap --instr 1 --save-ckpt "$CKPT" \
    >/dev/null

rm -rf "$EXP"
echo "profile.sh: recording a restored run of $INSTR instructions/core ..." >&2
gprofng collect app -o "$EXP" \
    "$BIN" --workload "$MIX" --policy dap --instr "$INSTR" \
    --restore-ckpt "$CKPT" >/dev/null

gprofng display text -functions "$EXP"
