#include "workload/compose.hh"

#include "common/log.hh"
#include "common/parse_number.hh"
#include "common/validate.hh"
#include "workload/spec.hh"

namespace dapsim::workload
{

namespace
{

/** One tenant parsed out of a mix: spec. */
struct Tenant
{
    std::string key;  ///< "t0", "t1", ...
    std::string kind; ///< engine kind or classic profile name
    std::string name; ///< display name (defaults to key)
    std::uint32_t cores = 0; ///< 0 = share the implicit remainder
    std::vector<std::pair<std::string, std::string>> params;
};

std::uint32_t
parseCores(const std::string &key, const std::string &value)
{
    const auto v = parseUnsigned<std::uint32_t>(value);
    if (!v || *v == 0)
        fatal("mix: " + key + ".cores expects a positive integer, got '" +
              value + "'");
    return *v;
}


/** Rebuild the canonical per-tenant spec text for an engine tenant. */
std::string
tenantSpec(const Tenant &t)
{
    std::string s = t.kind;
    char sep = ':';
    for (const auto &p : t.params) {
        s += sep;
        s += p.first + "=" + p.second;
        sep = ',';
    }
    return s;
}

/** Apply the tenant overrides a classic profile accepts. */
WorkloadProfile
classicTenantProfile(const Tenant &t)
{
    WorkloadProfile w = workloadByName(t.kind);
    auto number = [&t](const std::string &param, const std::string &value) {
        if (const auto v = parseFinite(value))
            return *v;
        fatal("mix: " + t.key + "." + param + " expects a number, got '" +
              value + "'");
    };
    for (const auto &p : t.params) {
        if (p.first == "mpki")
            w.params.mpki = checkMpki("mix: " + t.key + ".mpki",
                                      number(p.first, p.second));
        else if (p.first == "write")
            w.params.writeFraction =
                checkUnitInterval("mix: " + t.key + ".write",
                                  number(p.first, p.second));
        else
            fatal("mix: classic profile tenant " + t.key + " (" + t.kind +
                  ") only accepts mpki and write overrides, got '" +
                  p.first + "'");
    }
    return w;
}

ComposedMix
composeMixSpec(const std::string &text, std::uint32_t cores)
{
    const ParsedSpec ps = parseSpec(text);
    std::vector<Tenant> tenants;
    auto find = [&](const std::string &key) -> Tenant * {
        for (auto &t : tenants)
            if (t.key == key)
                return &t;
        return nullptr;
    };

    for (const auto &[key, value] : ps.kv) {
        const auto dot = key.find('.');
        const std::string tkey = key.substr(0, dot);
        if (tkey.size() < 2 || tkey[0] != 't' ||
            tkey.find_first_not_of("0123456789", 1) != std::string::npos)
            fatal("mix: expected tN / tN.param keys, got '" + key + "'");
        if (dot == std::string::npos) {
            if (find(tkey))
                fatal("mix: tenant " + tkey + " declared twice");
            Tenant t;
            t.key = tkey;
            t.name = tkey;
            t.kind = value;
            tenants.push_back(std::move(t));
            continue;
        }
        Tenant *t = find(tkey);
        if (!t)
            fatal("mix: parameter '" + key + "' before tenant '" + tkey +
                  "' is declared (write " + tkey + "=<kind> first)");
        const std::string param = key.substr(dot + 1);
        if (param == "cores")
            t->cores = parseCores(tkey, value);
        else if (param == "name")
            t->name = value;
        else
            t->params.emplace_back(param, value);
    }
    if (tenants.empty())
        fatal("mix: no tenants declared (expected t0=<kind>, ...)");

    // Distribute cores: explicit counts are reserved, the rest split
    // evenly over implicit tenants (earlier tenants take the
    // remainder).
    std::uint32_t explicitSum = 0, implicitCount = 0;
    for (const auto &t : tenants) {
        explicitSum += t.cores;
        implicitCount += t.cores == 0;
    }
    if (explicitSum > cores || (explicitSum == cores && implicitCount))
        fatal("mix: tenant core counts need more than the " +
              std::to_string(cores) + " available cores");
    if (!implicitCount && explicitSum != cores)
        fatal("mix: tenant core counts sum to " +
              std::to_string(explicitSum) + " but the system has " +
              std::to_string(cores) + " cores");
    if (implicitCount) {
        const std::uint32_t left = cores - explicitSum;
        if (left < implicitCount)
            fatal("mix: " + std::to_string(implicitCount) +
                  " tenants share only " + std::to_string(left) +
                  " remaining cores");
        std::uint32_t idx = 0;
        for (auto &t : tenants)
            if (t.cores == 0) {
                t.cores = left / implicitCount +
                          (idx < left % implicitCount ? 1 : 0);
                ++idx;
            }
    }

    ComposedMix out;
    out.mix.name = text;
    out.mix.kind = Mix::Kind::Hetero;
    for (const auto &t : tenants) {
        WorkloadProfile w;
        if (looksLikeSpec(t.kind)) {
            const std::string sub = tenantSpec(t);
            validateSpec(sub);
            w.name = t.kind;
            w.spec = sub;
        } else {
            w = classicTenantProfile(t);
        }
        for (std::uint32_t c = 0; c < t.cores; ++c) {
            out.mix.apps.push_back(w);
            out.coreTenants.push_back(t.name);
        }
    }
    return out;
}

} // namespace

ComposedMix
composeWorkload(const std::string &workload, std::uint32_t cores)
{
    if (cores == 0)
        fatal("composeWorkload: zero cores");

    if (!looksLikeSpec(workload)) {
        // Classic profile name; workloadByName() fatals with the full
        // roster if it is unknown.
        ComposedMix out;
        out.mix = rateMix(workloadByName(workload), cores);
        out.coreTenants.assign(cores, workload);
        return out;
    }

    const ParsedSpec ps = parseSpec(workload);
    if (ps.kind == "mix")
        return composeMixSpec(workload, cores);

    validateSpec(workload);
    WorkloadProfile w;
    w.name = ps.kind;
    w.spec = workload;
    ComposedMix out;
    out.mix.name = workload;
    out.mix.kind = Mix::Kind::Hetero;
    for (std::uint32_t c = 0; c < cores; ++c) {
        out.mix.apps.push_back(w);
        out.coreTenants.push_back(ps.kind);
    }
    return out;
}

} // namespace dapsim::workload
