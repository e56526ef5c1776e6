#include "obs/observability.hh"

#include "common/log.hh"

namespace dapsim::obs
{

std::ofstream
Observability::openOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("obs: cannot open " + path + " for writing");
    return os;
}

Observability::Observability(const ObsConfig &cfg, const EventQueue &eq)
    : cfg_(cfg)
{
    if (cfg_.samplingEnabled()) {
        if (cfg_.sampleOut.empty())
            fatal("obs: sampling enabled but no output path set");
        sampleOut_ = openOut(cfg_.sampleOut);
    }
    if (!cfg_.dapTrace.empty()) {
        dapOut_ = openOut(cfg_.dapTrace);
        dapTrace_ = std::make_unique<DapTrace>(eq, dapOut_);
    }
    if (!cfg_.chromeTrace.empty()) {
        chromeOut_ = openOut(cfg_.chromeTrace);
        chromeTrace_ = std::make_unique<ChromeTraceWriter>(chromeOut_);
    }
}

Observability::~Observability()
{
    finish();
}

void
Observability::startSampling(EventQueue &eq)
{
    if (cfg_.samplingEnabled())
        sampler_.start(eq, cfg_.sampleEvery, sampleOut_,
                       cfg_.sampleFormat);
}

void
Observability::finish()
{
    if (finished_)
        return;
    finished_ = true;
    sampler_.stop();
    if (chromeTrace_)
        chromeTrace_->finish();
    if (sampleOut_.is_open())
        sampleOut_.close();
    if (dapOut_.is_open())
        dapOut_.close();
    if (chromeOut_.is_open())
        chromeOut_.close();
}

} // namespace dapsim::obs
