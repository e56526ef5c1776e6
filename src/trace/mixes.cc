#include "trace/mixes.hh"

#include "common/rng.hh"

namespace dapsim
{

Mix
rateMix(const WorkloadProfile &w, std::uint32_t copies)
{
    Mix m;
    m.name = w.name + "-rate" + std::to_string(copies);
    m.kind = w.bandwidthSensitive ? Mix::Kind::Sensitive
                                  : Mix::Kind::Insensitive;
    for (std::uint32_t i = 0; i < copies; ++i)
        m.apps.push_back(w);
    return m;
}

std::vector<Mix>
heterogeneousMixes()
{
    const auto sens = bandwidthSensitiveWorkloads();
    const auto insens = bandwidthInsensitiveWorkloads();
    Rng rng(0xda9);
    std::vector<Mix> out;

    // 13 similar-sensitivity mixes: 11 drawn from the sensitive pool,
    // 2 from the insensitive pool.
    for (int i = 0; i < 11; ++i) {
        Mix m;
        m.name = "hetS" + std::to_string(i);
        m.kind = Mix::Kind::Hetero;
        for (int c = 0; c < 8; ++c)
            m.apps.push_back(sens[rng.below(sens.size())]);
        out.push_back(std::move(m));
    }
    for (int i = 0; i < 2; ++i) {
        Mix m;
        m.name = "hetI" + std::to_string(i);
        m.kind = Mix::Kind::Hetero;
        for (int c = 0; c < 8; ++c)
            m.apps.push_back(insens[rng.below(insens.size())]);
        out.push_back(std::move(m));
    }

    // 14 dissimilar mixes: half sensitive, half insensitive apps.
    for (int i = 0; i < 14; ++i) {
        Mix m;
        m.name = "hetD" + std::to_string(i);
        m.kind = Mix::Kind::Hetero;
        for (int c = 0; c < 4; ++c)
            m.apps.push_back(sens[rng.below(sens.size())]);
        for (int c = 0; c < 4; ++c)
            m.apps.push_back(insens[rng.below(insens.size())]);
        out.push_back(std::move(m));
    }
    return out;
}

std::vector<Mix>
allMixes()
{
    std::vector<Mix> out;
    for (const auto &w : allWorkloads())
        if (w.bandwidthSensitive)
            out.push_back(rateMix(w, 8));
    for (const auto &w : allWorkloads())
        if (!w.bandwidthSensitive)
            out.push_back(rateMix(w, 8));
    for (auto &m : heterogeneousMixes())
        out.push_back(std::move(m));
    return out;
}

} // namespace dapsim
