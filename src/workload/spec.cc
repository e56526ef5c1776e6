#include "workload/spec.hh"

#include <cctype>
#include <limits>
#include <map>

#include "common/log.hh"
#include "common/parse_number.hh"
#include "common/validate.hh"
#include "workload/generators.hh"
#include "workload/spec_names.hh"

namespace dapsim::workload
{

namespace
{

std::string
kindList()
{
    std::string out;
    for (const char *k : kSpecKinds) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out;
}

double
parseDouble(const std::string &kind, const std::string &key,
            const std::string &text)
{
    if (const auto v = parseFinite(text))
        return *v;
    fatal(kind + ": parameter '" + key + "' expects a number, got '" + text +
          "'");
}

std::uint64_t
parseCount(const std::string &kind, const std::string &key,
           const std::string &text)
{
    if (const auto v = parseUnsigned(text))
        return *v;
    fatal(kind + ": parameter '" + key + "' expects an integer, got '" +
          text + "'");
}

/** An unsigned decimal with an optional K/M/G suffix, in bytes. */
std::uint64_t
parseSize(const std::string &kind, const std::string &key,
          const std::string &text)
{
    const int unit = text.empty() ? 0 : std::toupper(text.back());
    const std::uint64_t mult = unit == 'K'   ? kKiB
                               : unit == 'M' ? kMiB
                               : unit == 'G' ? kMiB * 1024
                                             : 1;
    const auto v = parseUnsigned(
        std::string_view(text).substr(0, text.size() - (mult != 1)));
    if (!v || *v > std::numeric_limits<std::uint64_t>::max() / mult)
        fatal(kind + ": parameter '" + key + "' expects a size with an "
              "optional K/M/G suffix, got '" + text + "'");
    return *v * mult;
}

/**
 * Typed, schema-checked reader over a spec's key=value pairs. Keys are
 * consumed as they are read; finish() rejects leftovers so a typo'd
 * parameter cannot be silently ignored.
 */
class ParamReader
{
  public:
    ParamReader(std::string kind, const ParsedSpec &ps) : kind_(std::move(kind))
    {
        for (const auto &[k, v] : ps.kv)
            if (!kv_.emplace(k, v).second)
                fatal(kind_ + ": duplicate parameter '" + k + "'");
    }

    double
    unit(const char *key, double def)
    {
        auto t = take(key);
        return checkUnitInterval(kind_ + ":" + key,
                                 t ? parseDouble(kind_, key, *t) : def);
    }

    double
    positive(const char *key, double def)
    {
        auto t = take(key);
        return checkPositive(kind_ + ":" + key,
                             t ? parseDouble(kind_, key, *t) : def);
    }

    double
    atLeastOne(const char *key, double def)
    {
        auto t = take(key);
        return checkAtLeast(kind_ + ":" + key,
                            t ? parseDouble(kind_, key, *t) : def, 1.0);
    }

    double
    mpki(const char *key, double def)
    {
        auto t = take(key);
        return checkMpki(kind_ + ":" + key,
                         t ? parseDouble(kind_, key, *t) : def);
    }

    std::uint64_t
    size(const char *key, std::uint64_t def)
    {
        auto t = take(key);
        const std::uint64_t v = t ? parseSize(kind_, key, *t) : def;
        if (v < kBlockBytes)
            fatal(kind_ + ":" + key + " must be at least " +
                  std::to_string(kBlockBytes) + " bytes");
        return v;
    }

    std::uint64_t
    count(const char *key, std::uint64_t def, std::uint64_t lo = 1)
    {
        auto t = take(key);
        return checkCountAtLeast(kind_ + ":" + key,
                                 t ? parseCount(kind_, key, *t) : def, lo);
    }

    DriftConfig
    drift()
    {
        DriftConfig d;
        if (auto t = take("drift")) {
            if (*t == "none")
                d.mode = DriftConfig::Mode::None;
            else if (*t == "rotate")
                d.mode = DriftConfig::Mode::Rotate;
            else if (*t == "jump")
                d.mode = DriftConfig::Mode::Jump;
            else if (*t == "migrate")
                d.mode = DriftConfig::Mode::Migrate;
            else
                fatal(kind_ + ":drift must be one of none, rotate, "
                      "jump, migrate — got '" + *t + "'");
        }
        d.period = count("period", d.period);
        return d;
    }

    void
    finish() const
    {
        if (kv_.empty())
            return;
        std::string bad, valid;
        for (const auto &e : kv_) {
            if (!bad.empty())
                bad += ", ";
            bad += e.first;
        }
        for (const auto &k : seen_) {
            if (!valid.empty())
                valid += ", ";
            valid += k;
        }
        fatal(kind_ + ": unknown parameter(s): " + bad +
              " (valid: " + valid + ")");
    }

  private:
    /** Consume @p key; nullptr-like empty optional when absent. */
    const std::string *
    take(const char *key)
    {
        seen_.push_back(key);
        auto it = kv_.find(key);
        if (it == kv_.end())
            return nullptr;
        cache_ = it->second;
        kv_.erase(it);
        return &cache_;
    }

    std::string kind_;
    std::map<std::string, std::string> kv_;
    std::vector<std::string> seen_;
    std::string cache_;
};

bool
isKind(const std::string &s)
{
    for (const char *k : kSpecKinds)
        if (s == k)
            return true;
    return false;
}

/** Per-core seed/base policy — mirrors trace makeGenerator exactly. */
void
foldCore(KernelParams &p, std::uint32_t core_id, std::uint64_t salt)
{
    p.base = static_cast<Addr>(core_id) << 40;
    p.seed = p.seed * 0x2545f4914f6cdd1dULL + core_id * 7919 + salt;
}

/**
 * Read one kind's parameters. When @p build is false this is a pure
 * validation pass (no CDF table construction); otherwise returns the
 * generator for @p core_id.
 */
AccessGeneratorPtr
readKind(const ParsedSpec &ps, bool build, std::uint32_t core_id,
         std::uint64_t salt)
{
    ParamReader r(ps.kind, ps);
    AccessGeneratorPtr gen;

    if (ps.kind == "zipf") {
        ZipfGenerator::Params p;
        p.skew = r.positive("skew", p.skew);
        p.footprintBytes = r.size("fp", p.footprintBytes);
        p.writeFraction = r.unit("write", p.writeFraction);
        p.mpki = r.mpki("mpki", p.mpki);
        p.runLength = r.atLeastOne("run", p.runLength);
        p.drift = r.drift();
        p.seed = r.count("seed", p.seed, 0);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<ZipfGenerator>(p);
        }
    } else if (ps.kind == "hotspot") {
        HotspotGenerator::Params p;
        p.hotFraction = r.unit("hot", p.hotFraction);
        p.hotProbability = r.unit("p", p.hotProbability);
        p.footprintBytes = r.size("fp", p.footprintBytes);
        p.writeFraction = r.unit("write", p.writeFraction);
        p.mpki = r.mpki("mpki", p.mpki);
        p.runLength = r.atLeastOne("run", p.runLength);
        p.drift = r.drift();
        p.seed = r.count("seed", p.seed, 0);
        checkPositive(ps.kind + ":hot", p.hotFraction);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<HotspotGenerator>(p);
        }
    } else if (ps.kind == "flood") {
        // A dense, read-only sweep: a stride-1 sparse stream.
        SparseStrideGenerator::Params p;
        p.strideBlocks = 1;
        p.footprintBytes = r.size("fp", 64 * kMiB);
        p.writeFraction = r.unit("write", 0.0);
        p.mpki = r.mpki("mpki", 200.0);
        p.seed = r.count("seed", p.seed, 0);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<SparseStrideGenerator>(p);
        }
    } else if (ps.kind == "chase") {
        KernelParams p;
        p.writeFraction = 0.05;
        p.footprintBytes = r.size("fp", p.footprintBytes);
        p.writeFraction = r.unit("write", p.writeFraction);
        p.mpki = r.mpki("mpki", p.mpki);
        p.seed = r.count("seed", p.seed, 0);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<ChaseGenerator>(p);
        }
    } else if (ps.kind == "wburst") {
        WriteBurstGenerator::Params p;
        p.mpki = 40.0;
        p.footprintBytes = r.size("fp", p.footprintBytes);
        p.burst = r.count("burst", p.burst);
        p.duty = r.unit("duty", p.duty);
        p.mpki = r.mpki("mpki", p.mpki);
        p.seed = r.count("seed", p.seed, 0);
        checkPositive(ps.kind + ":duty", p.duty);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<WriteBurstGenerator>(p);
        }
    } else if (ps.kind == "sparse") {
        SparseStrideGenerator::Params p;
        p.mpki = 30.0;
        p.footprintBytes = r.size("fp", p.footprintBytes);
        p.strideBlocks = r.count("stride", p.strideBlocks);
        p.writeFraction = r.unit("write", p.writeFraction);
        p.mpki = r.mpki("mpki", p.mpki);
        p.seed = r.count("seed", p.seed, 0);
        if (build) {
            foldCore(p, core_id, salt);
            gen = std::make_unique<SparseStrideGenerator>(p);
        }
    } else {
        fatal("workload spec '" + ps.kind +
              "' cannot be instantiated directly (kinds: " + kindList() +
              ")");
    }
    r.finish();
    return gen;
}

} // namespace

ParsedSpec
parseSpec(const std::string &text)
{
    ParsedSpec ps;
    const auto colon = text.find(':');
    ps.kind = text.substr(0, colon);
    if (!isKind(ps.kind))
        fatal("unknown workload-spec kind: '" + ps.kind +
              "' (kinds: " + kindList() + ")");
    if (colon == std::string::npos)
        return ps;

    std::string rest = text.substr(colon + 1);
    std::size_t pos = 0;
    while (pos < rest.size()) {
        auto comma = rest.find(',', pos);
        if (comma == std::string::npos)
            comma = rest.size();
        const std::string tok = rest.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("workload spec '" + text +
                  "': expected key=value, got '" + tok + "'");
        ps.kv.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return ps;
}

bool
looksLikeSpec(const std::string &text)
{
    return isKind(text.substr(0, text.find(':')));
}

void
validateSpec(const std::string &text)
{
    const ParsedSpec ps = parseSpec(text);
    if (ps.kind == "mix")
        fatal("mix specs are validated by composeWorkload()");
    readKind(ps, /*build=*/false, 0, 0);
}

AccessGeneratorPtr
makeSpecGenerator(const std::string &spec, std::uint32_t core_id,
                  std::uint64_t seed_salt)
{
    const ParsedSpec ps = parseSpec(spec);
    if (ps.kind == "mix")
        fatal("mix specs describe whole systems; compose them with "
              "composeWorkload() / --workload, not per-core");
    return readKind(ps, /*build=*/true, core_id, seed_salt);
}

const std::vector<SpecInfo> &
specInfos()
{
    static const std::vector<SpecInfo> infos = {
        {"zipf", "Zipf-ranked key popularity over the footprint",
         {{"skew", "Zipf exponent s > 0 (default 0.99)"},
          {"fp", "footprint, K/M/G suffix (default 32M)"},
          {"write", "write fraction [0,1] (default 0.2)"},
          {"mpki", "L2-miss MPKI (0,1000] (default 25)"},
          {"run", "mean spatial run length >= 1 (default 4)"},
          {"drift", "none|rotate|jump|migrate (default none)"},
          {"period", "accesses per drift cycle (default 200000)"},
          {"seed", "stream seed (default 1)"}}},
        {"hotspot", "hot region + cold tail, drift-capable",
         {{"hot", "hot fraction of footprint (0,1] (default 0.05)"},
          {"p", "hot-access probability [0,1] (default 0.9)"},
          {"fp", "footprint (default 32M)"},
          {"write", "write fraction (default 0.2)"},
          {"mpki", "L2-miss MPKI (default 25)"},
          {"run", "mean spatial run length (default 4)"},
          {"drift", "none|rotate|jump|migrate (default none)"},
          {"period", "accesses per drift cycle (default 200000)"},
          {"seed", "stream seed (default 1)"}}},
        {"flood", "streaming read flood (bandwidth hog)",
         {{"fp", "footprint (default 64M)"},
          {"write", "write fraction (default 0)"},
          {"mpki", "L2-miss MPKI (default 200)"},
          {"seed", "stream seed (default 1)"}}},
        {"chase", "dependent pointer chase, zero spatial locality",
         {{"fp", "footprint (default 32M)"},
          {"write", "write fraction (default 0.05)"},
          {"mpki", "L2-miss MPKI (default 25)"},
          {"seed", "stream seed (default 1)"}}},
        {"wburst", "alternating write bursts / read phases",
         {{"fp", "footprint (default 32M)"},
          {"burst", "writes per burst (default 64)"},
          {"duty", "overall write share (0,1] (default 0.5)"},
          {"mpki", "L2-miss MPKI (default 40)"},
          {"seed", "stream seed (default 1)"}}},
        {"sparse", "sector-hostile sparse stride",
         {{"fp", "footprint (default 32M)"},
          {"stride", "stride in blocks (default 8 = one/sector)"},
          {"write", "write fraction (default 0.2)"},
          {"mpki", "L2-miss MPKI (default 30)"},
          {"seed", "stream seed (default 1)"}}},
        {"mix", "multi-tenant composition sharing the MS$",
         {{"tN", "tenant N's kind or classic profile name"},
          {"tN.cores", "cores for tenant N (default: even split)"},
          {"tN.name", "display name (default tN)"},
          {"tN.<param>", "any parameter of tenant N's kind; classic "
                         "profiles accept mpki and write overrides"}}},
    };
    return infos;
}

} // namespace dapsim::workload
