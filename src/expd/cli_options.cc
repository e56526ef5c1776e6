#include "expd/cli_options.hh"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <variant>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/parse_number.hh"
#include "sim/presets.hh"
#include "trace/workloads.hh"
#include "workload/spec.hh"

namespace dapsim::expd
{

namespace
{

/**
 * The field an option sets, bound to one CliOptions. Its type is the
 * option's value kind:
 *   bool            a switch: takes no value, sets true
 *   string          any text, or one of the placeholder's '|' words
 *   uint32, uint64  a plain unsigned decimal that fits
 *   double          a finite decimal
 *   vector<string>  a comma-separated list
 *   vector<uint64>  a comma-separated list of plain unsigned decimals
 *   ShardField      i/N with i < N
 */
using ShardField = std::pair<std::size_t *, std::size_t *>;
using Field = std::variant<bool *, std::string *, std::uint32_t *,
                           std::uint64_t *, double *,
                           std::vector<std::string> *,
                           std::vector<std::uint64_t> *, ShardField>;
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "WorkerOptions' size_t fields bind as uint64 fields");

/** One row of the option table. */
struct Option
{
    const char *name;
    const char *meta; ///< usage placeholder for the value; null: switch
    unsigned tools;   ///< Tool mask
    Field field;
    const char *doc;
    const char *key = nullptr; ///< manifest key of a GridOptions member
    bool keyOptional = false;  ///< the key postdates dapsim.expq.v1
};

constexpr unsigned kAll = kDapsim | kSweep | kExpd;

/** The option table, each row bound to a field of @p o. The
 *  GridOptions rows come first, in manifest order. */
std::vector<Option>
optionTable(CliOptions &o)
{
    GridOptions &g = o.grid;
    WorkerOptions &w = o.worker;
    return {
        {"--arch", "LIST", kAll, &g.archs,
         "sectored|alloy|edram, dapsim also none (default sectored)",
         "archs"},
        {"--policy", "LIST", kAll, &g.policies,
         "baseline|dap|sbd|sbd-wt|batman|bear (default baseline; grids "
         "baseline,dap)",
         "policies"},
        {"--workload", "LIST", kAll, &g.workloads,
         "profiles, all|sensitive|insensitive, or specs like zipf:fp=64M "
         "(default mcf; grids sensitive)",
         "workloads"},
        {"--capacity-mb", "LIST", kAll, &g.capacitiesMb,
         "MS$ capacities in MiB (default: the preset's)", "capacities_mb"},
        {"--cores", "N", kAll, &g.cores, "cores per system (default 8)",
         "cores"},
        {"--instr", "N", kAll, &g.instr,
         "instructions per core, e.g. 1000000 (default 120000)", "instr"},
        {"--seed", "N", kAll, &g.seed, "workload seed salt (default 0)",
         "seed"},
        {"--warmup", "N", kSweep | kExpd, &g.warmup,
         "warm-up accesses per core (default 2 x MS$ blocks / cores)",
         "warmup"},
        {"--remote", nullptr, kAll, &g.remote,
         "enable the remote bandwidth tier", "remote"},
        {"--remote-scale", "S", kAll, &g.remoteScale,
         "remote BW = DDR BW / S (default 4)", "remote_scale"},
        {"--remote-latency-ns", "NS", kAll, &g.remoteLatencyNs,
         "remote latency adder (default 120)", "remote_latency_ns"},
        {"--remote-outstanding", "N", kAll, &g.remoteOutstanding,
         "remote credit window (default 32)", "remote_outstanding"},
        {"--fidelity", "MODE", kAll, &g.fidelity,
         "exact (default) | sampled | analytic", "fidelity", true},
        {"--fidelity-detail", "N", kAll, &g.fidelityDetail,
         "sampled: detailed instructions per core per period (2000)",
         "fidelity_detail", true},
        {"--fidelity-period", "N", kAll, &g.fidelityPeriod,
         "sampled: period in instructions per core (10000)",
         "fidelity_period", true},

        {"--trace", "FILE", kDapsim, &o.trace,
         "drive every core from a trace file"},
        {"--window", "W", kDapsim, &o.window,
         "DAP window in CPU cycles (default 64)"},
        {"--efficiency", "E", kDapsim, &o.efficiency,
         "DAP bandwidth efficiency in (0, 1] (default 0.75)"},
        {"--save-ckpt", "FILE", kDapsim, &o.saveCkpt,
         "snapshot the post-warm-up state to FILE"},
        {"--restore-ckpt", "FILE", kDapsim, &o.restoreCkpt,
         "skip warm-up; restore the state from FILE"},
        {"--sample-every", "N", kDapsim | kSweep, &o.sampleEvery,
         "sample stats every N CPU cycles (sweeps: per job)"},
        {"--sample-out", "FILE", kDapsim, &o.sampleOut,
         "time-series output (with --sample-every)"},
        {"--sample-format", "jsonl|csv", kDapsim | kSweep, &o.sampleFormat,
         "time-series format (default jsonl)"},
        {"--dap-trace", "FILE", kDapsim, &o.dapTraceFile,
         "per-window DAP decision trace (JSONL)"},
        {"--chrome-trace", "FILE", kDapsim, &o.chromeTraceFile,
         "Chrome trace_event JSON (Perfetto)"},
        {"--stats", nullptr, kDapsim, &o.stats, "dump full statistics"},

        {"--jobs", "N", kSweep, &o.jobs, "worker threads (default 1)"},
        {"--json", "FILE", kSweep, &o.jsonPath,
         "also write JSON-lines results to FILE"},
        {"--dry-run", nullptr, kSweep, &o.dryRun,
         "print the expanded grid (index, job id, group, label), exit"},
        {"--store", "DIR", kSweep, &o.submitStore,
         "submit the grid as a dapsim.expq.v1 store instead of running"},
        {"--warmup-fork", nullptr, kSweep, &o.warmupFork,
         "share one warm-up per (arch, workload, seed) group"},
        {"--ckpt-dir", "DIR", kSweep, &o.ckptDir,
         "keep and reuse warm-up checkpoints in DIR (implies fork)"},
        {"--obs-dir", "DIR", kSweep, &o.obsDir,
         "write per-job observability files into DIR"},
        {"--dap-trace", nullptr, kSweep, &o.dapTrace,
         "per-job DAP decision traces (JSONL)"},
        {"--chrome-trace", nullptr, kSweep, &o.chromeTrace,
         "per-job Chrome trace_event files"},
        {"--phase-trace", "FILE", kSweep, &o.phaseTracePath,
         "wall-clock job-scheduling trace (Chrome JSON)"},
        {"--quiet", nullptr, kSweep, &o.quiet, "suppress the console table"},
        {"--list", nullptr, kDapsim | kSweep, &o.list,
         "list workload profiles and spec schemas"},

        {"--store", "DIR", kExpd, &w.storeDir, "the store (required)"},
        {"--shard", "i/N", kExpd, ShardField{&w.shardIndex, &w.shardCount},
         "run: only jobs with index % N == i (default 0/1)"},
        {"--jobs", "K", kExpd, &w.maxJobs, "run: stop after K executed jobs"},
        {"--id", "W", kExpd, &w.workerId,
         "run: ledger writer id (default w<pid>)"},
        {"--lease-ttl", "S", kExpd, &w.leaseTtlSec,
         "run: lease heartbeat TTL in seconds, > 0 (default 60)"},
        {"--progress", nullptr, kExpd, &w.progress,
         "run: per-job progress lines on stderr"},
        {"--out", "FILE", kExpd, &o.outPath,
         "merge: write to FILE instead of stdout"},
    };
}

[[noreturn]] void
reject(const Option &o, const std::string &text, const std::string &form)
{
    throw OptionError(o.name, std::string(o.name) + " expects " + form +
                                  ", got '" + text + "'");
}

std::vector<std::string>
splitList(const Option &o, const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos <= text.size();) {
        const std::size_t end = std::min(text.find(',', pos), text.size());
        if (end > pos)
            out.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    if (out.empty())
        reject(o, text, "a comma-separated list");
    return out;
}

// One value setter per field type (see Field).
void set(const Option &, bool *p, const std::string &) { *p = true; }

template <std::unsigned_integral T>
void
set(const Option &o, T *p, const std::string &text)
{
    const auto v = parseUnsigned<T>(text);
    if (!v)
        reject(o, text,
               std::string("an unsigned decimal integer") +
                   (sizeof(T) == 4 ? " below 2^32" : ""));
    *p = *v;
}

void
set(const Option &o, double *p, const std::string &text)
{
    const auto v = parseFinite(text);
    if (!v)
        reject(o, text, "a finite decimal number");
    *p = *v;
}

void
set(const Option &o, std::string *p, const std::string &text)
{
    // A placeholder of '|'-separated words lists the only values.
    if (std::strchr(o.meta, '|') &&
        (text.find('|') != std::string::npos ||
         ("|" + std::string(o.meta) + "|").find("|" + text + "|") ==
             std::string::npos))
        reject(o, text, o.meta);
    *p = text;
}

/** Workload-engine specs contain commas themselves
 *  (zipf:skew=0.99,fp=64M): an element that is a key=value
 *  continuation — '=' before any ':' — folds back into the previous
 *  one. No arch or policy name contains '='. */
void
set(const Option &o, std::vector<std::string> *p, const std::string &text)
{
    p->clear();
    for (const std::string &tok : splitList(o, text)) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos || tok.find(':') < eq)
            p->push_back(tok);
        else if (p->empty())
            reject(o, text, "a list that starts with a name or spec");
        else
            p->back() += "," + tok;
    }
}

void
set(const Option &o, std::vector<std::uint64_t> *p, const std::string &text)
{
    p->clear();
    for (const std::string &e : splitList(o, text))
        set(o, &p->emplace_back(), e);
}

void
set(const Option &o, ShardField p, const std::string &text)
{
    const std::size_t slash = text.find('/');
    const auto i = parseUnsigned(text.substr(0, slash));
    const auto n = slash == std::string::npos
                       ? std::nullopt
                       : parseUnsigned(text.substr(slash + 1));
    if (!i || !n || *i >= *n)
        reject(o, text, "i/N with i < N");
    *p.first = *i;
    *p.second = *n;
}

/** A list option holding other than one value (dapsim takes one). */
bool
multiValued(const Option &o)
{
    if (auto *p = std::get_if<std::vector<std::string> *>(&o.field))
        return (*p)->size() != 1;
    if (auto *p = std::get_if<std::vector<std::uint64_t> *>(&o.field))
        return (*p)->size() != 1;
    return false;
}

// Manifest coding, one overload per GridOptions field type.
template <class T>
void
put(json::JsonWriter &w, const T *p)
{
    w.value(*p);
}

template <class T>
void
put(json::JsonWriter &w, const std::vector<T> *p)
{
    w.beginArray();
    for (const T &e : *p)
        w.value(e);
    w.endArray();
}

void put(json::JsonWriter &, ShardField) {}

void get(const json::Value &v, bool *p) { *p = v.asBool(); }
void get(const json::Value &v, std::string *p) { *p = v.asString(); }
void get(const json::Value &v, double *p) { *p = v.asDouble(); }
void get(const json::Value &, ShardField) {}

template <std::unsigned_integral T>
void
get(const json::Value &v, T *p)
{
    *p = static_cast<T>(v.asU64());
}

template <class T>
void
get(const json::Value &v, std::vector<T> *p)
{
    p->resize(v.arr.size());
    for (std::size_t i = 0; i < v.arr.size(); ++i)
        get(v.arr[i], &(*p)[i]);
}

void
printWorkloadCatalog()
{
    std::printf("profiles:\n");
    for (const auto &w : allWorkloads())
        std::printf("  %-18s %s\n", w.name.c_str(),
                    w.bandwidthSensitive ? "bandwidth-sensitive"
                                         : "bandwidth-insensitive");
    std::printf("workload-engine specs (kind:key=value,...):\n");
    for (const auto &info : workload::specInfos()) {
        std::printf("  %-18s %s\n", info.kind, info.help);
        for (const auto &p : info.params)
            std::printf("    %-16s %s\n", p.key, p.help);
    }
}

} // namespace

CliOptions
parseOptions(Tool tool, const std::vector<std::string> &args)
{
    CliOptions o;
    if (tool == kDapsim) {
        o.grid.policies = {"baseline"};
        o.grid.workloads = {"mcf"};
    }
    const std::vector<Option> table = optionTable(o);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto row =
            std::find_if(table.begin(), table.end(), [&](const Option &r) {
                return (r.tools & tool) && args[i] == r.name;
            });
        if (row == table.end())
            throw OptionError(args[i], "unknown option '" + args[i] + "'");
        if (row->meta && ++i == args.size())
            throw OptionError(row->name,
                              std::string(row->name) + " expects a value");
        std::visit([&](auto f) { set(*row, f, args[i]); }, row->field);
        if (tool == kDapsim && multiValued(*row))
            reject(*row, args[i], "one value in dapsim");
    }
    return o;
}

std::string
usage(Tool tool)
{
    std::string out =
        tool == kDapsim  ? "usage: dapsim [options]\n"
        : tool == kSweep ? "usage: dapsim_sweep [options]\n"
                         : "usage: dapsim_expd COMMAND --store DIR [options]\n"
                           "commands: submit, run, resume (after a crash), "
                           "status, merge, retry-failed\n";
    CliOptions o;
    for (const Option &r : optionTable(o)) {
        if (!(r.tools & tool))
            continue;
        std::string line = "  " + std::string(r.name) +
                           (r.meta ? std::string(" ") + r.meta : "");
        line.resize(std::max<std::size_t>(line.size() + 1, 27), ' ');
        out += line + r.doc + "\n";
    }
    return out;
}

CliOptions
parseCommandLine(Tool tool, int argc, char **argv)
{
    CliOptions o;
    try {
        o = parseOptions(tool, {argv + std::min(1, argc), argv + argc});
    } catch (const OptionError &e) {
        std::fputs(usage(tool).c_str(), stderr);
        fatal(e.what());
    }
    if (o.list) {
        printWorkloadCatalog();
        std::exit(0);
    }
    return o;
}

SystemConfig
dapsimConfig(const CliOptions &o)
{
    if ((o.sampleEvery != 0) != !o.sampleOut.empty())
        fatal("--sample-every and --sample-out must be used together");
    const GridOptions &g = o.grid;
    SystemConfig cfg;
    if (g.archs[0] == "none") {
        // dapsim only: a grid point without an MS$ would end the whole
        // sweep in DapConfig::ratioK's fatal under the dap policy.
        cfg = presets::sectoredSystem8();
        cfg.arch = MsArch::None;
        cfg.warmupAccessesPerCore = 1;
    } else {
        cfg = archConfig(g.archs[0], g.capacitiesMb[0]);
    }
    applyGridPoint(g, cfg);
    cfg.core.instructions = g.instr;
    cfg.windowCycles = o.window;
    cfg.dap.efficiency = o.efficiency;
    cfg.policy = exp::policyKindFromName(g.policies[0]);
    cfg.obs.sampleEvery = o.sampleEvery;
    cfg.obs.sampleOut = o.sampleOut;
    cfg.obs.sampleFormat = o.sampleFormat == "csv"
                               ? obs::SampleFormat::Csv
                               : obs::SampleFormat::Jsonl;
    cfg.obs.dapTrace = o.dapTraceFile;
    cfg.obs.chromeTrace = o.chromeTraceFile;
    return cfg;
}

std::string
encodeGridOptions(const GridOptions &opt)
{
    CliOptions o;
    o.grid = opt;
    json::JsonWriter w;
    w.beginObject();
    for (const Option &row : optionTable(o)) {
        if (row.key) {
            w.key(row.key);
            std::visit([&w](auto f) { put(w, f); }, row.field);
        }
    }
    w.endObject();
    return w.str();
}

GridOptions
decodeGridOptions(const json::Value &v)
{
    CliOptions o;
    for (const Option &row : optionTable(o)) {
        if (!row.key)
            continue;
        if (const json::Value *e =
                row.keyOptional ? v.find(row.key) : &v.at(row.key))
            std::visit([e](auto f) { get(*e, f); }, row.field);
    }
    return o.grid;
}

} // namespace dapsim::expd
