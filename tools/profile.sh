#!/bin/sh
# Profile the timed path of a DAP run of the fig12 8-app mix with a
# dense wall-clock PC sampler (tools/pc_sampler.cc, loaded with
# LD_PRELOAD; neither `perf` nor gprofng is assumed). Builds the
# Release tree if needed, saves the post-warm-up checkpoint once
# (`--instr 1 --save-ckpt`), then samples one `dapsim --restore-ckpt`
# run every 100 us, so the profile holds the timed simulation and not
# the warm-up. Folds the samples through `addr2line -f -C -i` and
# prints self-time tables per function and per source line; an
# inlined function counts as itself, not as its caller.
#
# Usage: tools/profile.sh [INSTR] [BUILD_DIR]
#   INSTR     instructions per core of the sampled run (default
#             3000000, ~2 s and ~20k samples on a 4-vCPU Xeon VM)
#   BUILD_DIR Release build directory (default build-rel)
#
# Requires c++, addr2line (binutils) and python3.

set -eu

INSTR="${1:-3000000}"
BUILD="${2:-build-rel}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/$BUILD/tools/dapsim"
MIX="mix:t0=mcf,t1=libquantum,t2=omnetpp,t3=milc,t4=hpcg,t5=bwaves,t6=gcc.expr,t7=parboil-lbm"

for tool in addr2line python3 c++; do
    command -v "$tool" >/dev/null 2>&1 || {
        echo "profile.sh: $tool not found" >&2
        exit 1
    }
done

if [ ! -x "$BIN" ]; then
    # -g adds the line tables addr2line needs; code generation is the
    # same as a plain Release build.
    echo "profile.sh: building $BUILD (Release) ..." >&2
    cmake -B "$ROOT/$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-g
    cmake --build "$ROOT/$BUILD" --target dapsim_cli -j "$(nproc)"
fi

WORK="$(mktemp -d -t profile.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
c++ -O2 -shared -fPIC -o "$WORK/pc_sampler.so" \
    "$ROOT/tools/pc_sampler.cc" -lrt

"$BIN" --workload "$MIX" --policy dap --instr 1 \
    --save-ckpt "$WORK/warm.ckpt" >/dev/null

echo "profile.sh: sampling a restored run of $INSTR instructions/core ..." >&2
(cd "$WORK" && LD_PRELOAD="$WORK/pc_sampler.so" \
    "$BIN" --workload "$MIX" --policy dap --instr "$INSTR" \
    --restore-ckpt "$WORK/warm.ckpt" >/dev/null)
[ -s "$WORK/pc_sampler.pcs" ] || {
    echo "profile.sh: the sampler recorded nothing" >&2
    exit 1
}

python3 - "$WORK/pc_sampler.pcs" "$WORK/pc_sampler.maps" <<'EOF'
import bisect
import collections
import subprocess
import sys

pcs_path, maps_path = sys.argv[1], sys.argv[2]
pcs = [int(line, 16) for line in open(pcs_path)]

# Executable mappings (start, end, path), and each object's load
# bias: the start of its mapping at file offset 0. An ET_DYN object is
# linked at base 0, so pc - bias is its link-time virtual address
# whatever the linker's segment layout.
maps = []
bias = {}
for line in open(maps_path):
    f = line.split(maxsplit=5)
    if len(f) < 6:
        continue
    lo, hi = (int(x, 16) for x in f[0].split("-"))
    path = f[5].strip()
    if int(f[2], 16) == 0:
        bias.setdefault(path, lo)
    if "x" in f[1]:
        maps.append((lo, hi, path))
maps.sort()
starts = [m[0] for m in maps]


def is_pie(path, cache={}):
    """ET_DYN objects (PIE, shared libraries) are addressed relative
    to their load base; ET_EXEC ones by absolute address."""
    if path not in cache:
        try:
            with open(path, "rb") as fh:
                cache[path] = fh.read(18)[16] == 3
        except OSError:
            cache[path] = None
    return cache[path]


# Object-relative addresses per object file.
where = []
by_obj = collections.defaultdict(set)
for pc in pcs:
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1] or not maps[i][2].startswith("/"):
        where.append(None)
        continue
    path = maps[i][2]
    pie = is_pie(path)
    if pie is None or (pie and path not in bias):
        where.append(None)
        continue
    addr = pc - bias[path] if pie else pc
    where.append((path, addr))
    by_obj[path].add(addr)

# addr -> (innermost function, innermost file:line)
frames = {}
for path, addrs in by_obj.items():
    ordered = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="".join("%x\n" % a for a in ordered),
        capture_output=True, text=True, check=True).stdout.splitlines()
    i = 0
    while i < len(out):
        addr = int(out[i], 16)
        func = out[i + 1] if i + 1 < len(out) else "??"
        loc = out[i + 2] if i + 2 < len(out) else "??:0"
        frames[(path, addr)] = (func, loc.split(" (discriminator")[0])
        i += 3
        while i < len(out) and not out[i].startswith("0x"):
            i += 2  # outer (calling) frames of an inlined function
funcs = collections.Counter()
lines = collections.Counter()
for w in where:
    func, loc = frames.get(w, ("[unknown]", "[unknown]")) if w else (
        "[unknown]", "[unknown]")
    funcs[func if func != "??" else "?? in " + w[0].rsplit("/", 1)[-1]] += 1
    lines[loc] += 1

n = len(pcs)
print("%d samples (one per 100 us of wall clock)" % n)
for title, table in (("function", funcs), ("source line", lines)):
    print("\nself time by %s:" % title)
    print("%7s %8s  %s" % ("share", "samples", title))
    for key, c in table.most_common(30):
        print("%6.2f%% %8d  %s" % (100.0 * c / max(n, 1), c, key))
EOF
