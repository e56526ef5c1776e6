#include "dram/bank.hh"

#include <algorithm>
#include <type_traits>

#include "dram/dram_config.hh"

namespace dapsim
{

// Three u64 state words: ~2.6 banks per cache line in a channel's
// bank array, and memcpy-safe for checkpoints.
static_assert(std::is_trivially_copyable_v<Bank>);
static_assert(sizeof(Bank) == 3 * sizeof(std::uint64_t));

BankTiming
BankTiming::from(const DramConfig &cfg)
{
    const Tick period = cfg.periodPs();
    BankTiming t;
    t.tCas = cfg.tCAS * period;
    t.tRcd = cfg.tRCD * period;
    t.tRp = cfg.tRP * period;
    t.tRas = cfg.tRAS * period;
    t.tRfc = cfg.tRFC * period;
    t.burst = cfg.burstTicks();
    return t;
}

Bank::Floors
Bank::floors(const BankTiming &t) const
{
    // A request at tick `at` starts at max(at, readyAt_); each arm's
    // latency distributes over that max.
    Floors f;
    f.openRow = openRow_;
    f.hitFloor = readyAt_ + t.tCas;
    if (openRow_ == kNoRow) {
        f.otherLat = t.tRcd + t.tCas;
        f.otherFloor = readyAt_ + f.otherLat;
    } else {
        // Conflict: precharge no earlier than tRAS after the activate.
        f.otherLat = t.tRp + t.tRcd + t.tCas;
        f.otherFloor =
            std::max(readyAt_, activatedAt_ + t.tRas) + f.otherLat;
    }
    return f;
}

Bank::Access
Bank::reserve(const BankTiming &t, Tick at, std::uint64_t row)
{
    const Floors f = floors(t);
    Access acc{};
    acc.rowHit = (openRow_ == row);
    acc.rowEmpty = (openRow_ == kNoRow);
    if (acc.rowHit) {
        acc.dataReadyAt = std::max(at + t.tCas, f.hitFloor);
    } else {
        // Page-empty or conflict: the activate sits tRCD before the
        // column command.
        acc.dataReadyAt = std::max(at + f.otherLat, f.otherFloor);
        activatedAt_ = acc.dataReadyAt - t.tCas - t.tRcd;
    }

    openRow_ = row;
    // Column commands pipeline at tCCD (one burst) on an open row: the
    // bank accepts the next CAS one burst after this one's command
    // slot, while this access's data arrives tCAS later.
    readyAt_ = acc.dataReadyAt - t.tCas + t.burst;
    return acc;
}

void
Bank::refresh(const BankTiming &t, Tick now)
{
    openRow_ = kNoRow;
    const Tick start = std::max(now, readyAt_);
    readyAt_ = start + t.tRfc;
}

Bank::Access
Bank::reserve(const DramConfig &cfg, Tick at, std::uint64_t row)
{
    return reserve(BankTiming::from(cfg), at, row);
}

void
Bank::refresh(const DramConfig &cfg, Tick now)
{
    refresh(BankTiming::from(cfg), now);
}

} // namespace dapsim
