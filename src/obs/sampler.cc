#include "obs/sampler.hh"

#include <cstdio>

#include "common/json_writer.hh"
#include "common/log.hh"

namespace dapsim::obs
{

namespace
{

/** Round-trip double formatting, matching the sweep JSON emitter. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Sampler::addColumn(std::string name, std::function<double()> probe)
{
    if (running_)
        fatal("Sampler: cannot add columns after start()");
    columns_.emplace_back(std::move(name), std::move(probe));
}

std::vector<std::string>
Sampler::columnNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, probe] : columns_)
        names.push_back(name);
    return names;
}

void
Sampler::start(EventQueue &eq, Cycle every, std::ostream &os,
               SampleFormat format)
{
    if (every == 0)
        fatal("Sampler: sample interval must be non-zero");
    eq_ = &eq;
    os_ = &os;
    every_ = every;
    format_ = format;
    running_ = true;
    samples_ = 0;

    const std::vector<std::string> names = columnNames();
    if (format_ == SampleFormat::Jsonl) {
        json::JsonWriter w;
        w.beginObject();
        w.key("schema").value(kSchema);
        w.key("sample_every_cycles")
            .value(static_cast<std::uint64_t>(every_));
        w.key("columns").beginArray();
        for (const auto &n : names)
            w.value(n);
        w.endArray();
        w.endObject();
        *os_ << w.str() << '\n';
    } else {
        *os_ << "tick";
        for (const auto &n : names)
            *os_ << ',' << n;
        *os_ << '\n';
    }

    eq_->scheduleAfter(cpuCyclesToTicks(every_),
                       EventQueue::Callback::of<&Sampler::tick>(this));
}

void
Sampler::tick()
{
    if (!running_)
        return;
    writeRow();
    ++samples_;
    eq_->scheduleAfter(cpuCyclesToTicks(every_),
                       EventQueue::Callback::of<&Sampler::tick>(this));
}

void
Sampler::writeRow()
{
    std::vector<double> values;
    for (const auto &[name, probe] : columns_)
        values.push_back(probe());

    if (format_ == SampleFormat::Jsonl) {
        json::JsonWriter w;
        w.beginObject();
        w.key("tick").value(eq_->now());
        w.key("values").beginArray();
        for (double v : values)
            w.value(v);
        w.endArray();
        w.endObject();
        *os_ << w.str() << '\n';
    } else {
        *os_ << eq_->now();
        for (double v : values)
            *os_ << ',' << fmtDouble(v);
        *os_ << '\n';
    }
}

} // namespace dapsim::obs
