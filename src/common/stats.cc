#include "common/stats.hh"

namespace dapsim
{

void
StatGroup::addCounter(const std::string &n, const Counter *c)
{
    counters_[n] = c;
}

void
StatGroup::appendColumnNames(std::vector<std::string> &out) const
{
    for (const auto &[n, c] : counters_)
        out.push_back(name_ + '.' + n);
}

void
StatGroup::appendValues(std::vector<double> &out) const
{
    for (const auto &kv : counters_)
        out.push_back(static_cast<double>(kv.second->value()));
}

} // namespace dapsim
