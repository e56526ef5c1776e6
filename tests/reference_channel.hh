/**
 * @file
 * Reference DRAM channel: the FR-FCFS scheduler before rank records.
 *
 * This is `Channel` as it stood before the scan ranked candidates from
 * per-bank floors, frozen as the behavioural oracle for that rewrite.
 * It keeps its own copy of the bank state machine with the per-tick
 * `peek`/`probe` answers, the 64-entry probe cache with its >64-bank
 * fallback, the scan's early exit at the `now + tCAS` floor, and the
 * bus placement that prunes expired reservations one erase at a time.
 * The differential fuzz test (test_channel_diff.cc)
 * drives this type and the production `Channel` with one scripted
 * request stream and requires equal completion logs, counters and
 * event counts.
 *
 * Do not optimise or otherwise modify this type: its value is that it
 * computes every scheduling decision the straightforward way. It only
 * schedules; checkpointing and bus tracing are not part of it.
 */

#ifndef DAPSIM_TESTS_REFERENCE_CHANNEL_HH
#define DAPSIM_TESTS_REFERENCE_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/ring_deque.hh"
#include "common/slot_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/channel.hh"
#include "dram/dram_config.hh"

namespace dapsim
{

/** Row-buffer state machine of one bank, answering per-tick peeks. */
class RefBank
{
  public:
    static constexpr std::uint64_t kNoRow = ~std::uint64_t(0);

    struct Access
    {
        Tick dataReadyAt;
        bool rowHit;
        bool rowEmpty;
    };

    /** Both answers peek() can give at tick @p at. */
    struct Probe
    {
        std::uint64_t openRow;
        Tick hitAt;
        Tick otherAt;
    };

    Access
    reserve(const BankTiming &t, Tick at, std::uint64_t row)
    {
        Tick start = std::max(at, readyAt_);
        Access acc{};
        acc.rowHit = (openRow_ == row);
        acc.rowEmpty = (openRow_ == kNoRow);

        if (acc.rowHit) {
            acc.dataReadyAt = start + t.tCas;
        } else if (acc.rowEmpty) {
            activatedAt_ = start;
            acc.dataReadyAt = start + t.tRcd + t.tCas;
        } else {
            const Tick preAt = std::max(start, activatedAt_ + t.tRas);
            activatedAt_ = preAt + t.tRp;
            acc.dataReadyAt = activatedAt_ + t.tRcd + t.tCas;
        }

        openRow_ = row;
        const Tick cmd_at = acc.dataReadyAt - t.tCas;
        readyAt_ = cmd_at + t.burst;
        return acc;
    }

    Access
    peek(const BankTiming &t, Tick at, std::uint64_t row) const
    {
        const Tick start = std::max(at, readyAt_);
        Access acc{};
        acc.rowHit = (openRow_ == row);
        acc.rowEmpty = (openRow_ == kNoRow);

        if (acc.rowHit) {
            acc.dataReadyAt = start + t.tCas;
        } else if (acc.rowEmpty) {
            acc.dataReadyAt = start + t.tRcd + t.tCas;
        } else {
            const Tick preAt = std::max(start, activatedAt_ + t.tRas);
            acc.dataReadyAt = preAt + t.tRp + t.tRcd + t.tCas;
        }
        return acc;
    }

    Probe
    probe(const BankTiming &t, Tick at) const
    {
        const Tick start = std::max(at, readyAt_);
        Probe p;
        p.openRow = openRow_;
        if (openRow_ == kNoRow) {
            p.hitAt = p.otherAt = start + t.tRcd + t.tCas;
        } else {
            p.hitAt = start + t.tCas;
            const Tick preAt = std::max(start, activatedAt_ + t.tRas);
            p.otherAt = preAt + t.tRp + t.tRcd + t.tCas;
        }
        return p;
    }

    void
    refresh(const BankTiming &t, Tick now)
    {
        openRow_ = kNoRow;
        const Tick start = std::max(now, readyAt_);
        readyAt_ = start + t.tRfc;
    }

  private:
    std::uint64_t openRow_ = kNoRow;
    Tick readyAt_ = 0;
    Tick activatedAt_ = 0;
};

/** One channel with its banks, queues and scheduler (reference). */
class RefChannel
{
  public:
    RefChannel(EventQueue &eq, const DramConfig &cfg, std::uint32_t index)
        : eq_(eq), cfg_(cfg), bankTiming_(BankTiming::from(cfg)),
          timing_(ChannelTiming::from(cfg)),
          banks_(cfg.ranksPerChannel * cfg.banksPerRank)
    {
        if (cfg_.tREFI > 0) {
            const Tick first =
                (index + 1) * timing_.refi / (cfg_.channels + 1);
            eq_.schedule(
                first,
                EventQueue::Callback::of<&RefChannel::refreshTick>(this));
        }
    }

    void
    enqueue(ChannelRequest req)
    {
        HotReq hot;
        hot.row = req.row;
        hot.enqueuedAt = eq_.now();
        hot.bank = req.bank;
        hot.extraDataClocks = req.extraDataClocks;
        hot.cb = callbacks_.put(std::move(req.onComplete));
        if (req.isWrite)
            writeQ_.push_back(hot);
        else if (req.lowPriority)
            readLowQ_.push_back(hot);
        else
            readDemandQ_.push_back(hot);
        scheduleKick(eq_.now());
    }

    std::size_t
    readQueueLen() const
    {
        return readDemandQ_.size() + readLowQ_.size();
    }
    std::size_t writeQueueLen() const { return writeQ_.size(); }
    Tick busBusyTicks() const { return busBusy_; }

    Counter kicks;
    Counter kicksEmpty;
    Counter kicksWait;
    Counter kicksIssue;
    Counter casReads;
    Counter casWrites;
    Counter rowHits;
    Counter rowMisses;
    Counter turnarounds;
    Counter refreshes;
    Average readQueueDelay;
    Average readLatency;

  private:
    struct HotReq
    {
        std::uint64_t row;
        Tick enqueuedAt;
        std::uint32_t bank;
        std::uint32_t extraDataClocks;
        std::uint32_t cb;
    };

    struct Pick
    {
        std::size_t idx = 0;
        Tick dataReadyAt = 0;
    };

    void
    refreshTick()
    {
        refreshes.inc();
        for (RefBank &b : banks_)
            b.refresh(bankTiming_, eq_.now());
        eq_.scheduleAfter(
            timing_.refi,
            EventQueue::Callback::of<&RefChannel::refreshTick>(this));
    }

    void
    scheduleKick(Tick when)
    {
        if (when < eq_.now())
            when = eq_.now();
        if (kickPending_ && when >= nextKickAt_)
            return;
        kickPending_ = true;
        nextKickAt_ = when;
        eq_.schedule(when,
                     EventQueue::Callback::of<&RefChannel::kickTick>(this));
    }

    void
    kickTick()
    {
        if (!kickPending_ || eq_.now() != nextKickAt_)
            return;
        kickPending_ = false;
        kick();
    }

    Pick
    pickSpans(const std::pair<const HotReq *, std::size_t> *spans,
              std::size_t nspans, std::size_t depth) const
    {
        const Tick now = eq_.now();
        const Tick floor = now + bankTiming_.tCas;
        Pick best{0, ~Tick(0)};
        constexpr std::size_t kMaxCachedBanks = 64;
        RefBank::Probe probes[kMaxCachedBanks];
        std::uint64_t have = 0;
        const bool cacheable = banks_.size() <= kMaxCachedBanks;
        std::size_t base = 0;
        for (std::size_t s = 0; s < nspans && depth != 0; ++s) {
            const HotReq *p = spans[s].first;
            const std::size_t n = std::min(spans[s].second, depth);
            depth -= n;
            for (std::size_t i = 0; i < n; ++i) {
                const HotReq &r = p[i];
                Tick ready;
                if (cacheable) {
                    const std::uint64_t bit = std::uint64_t(1) << r.bank;
                    if ((have & bit) == 0) {
                        probes[r.bank] =
                            banks_[r.bank].probe(bankTiming_, now);
                        have |= bit;
                    }
                    const RefBank::Probe &pb = probes[r.bank];
                    ready = r.row == pb.openRow ? pb.hitAt : pb.otherAt;
                } else {
                    ready = banks_[r.bank]
                                .peek(bankTiming_, now, r.row)
                                .dataReadyAt;
                }
                if (ready < best.dataReadyAt) {
                    best.dataReadyAt = ready;
                    best.idx = base + i;
                    if (ready <= floor)
                        return best;
                }
            }
            base += n;
        }
        return best;
    }

    Tick
    placeBus(Tick ready, Tick occ, bool reserve)
    {
        const Tick now = eq_.now();
        while (!busResv_.empty() && busResv_.front().second <= now)
            busResv_.erase(busResv_.begin());

        Tick start = ready;
        std::size_t pos = 0;
        for (; pos < busResv_.size(); ++pos) {
            const auto &[s, e] = busResv_[pos];
            if (start + occ <= s)
                break;
            if (start < e)
                start = e;
        }
        if (reserve) {
            busResv_.insert(busResv_.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            {start, start + occ});
        }
        return start;
    }

    void
    issue(RingDeque<HotReq> &q, std::size_t idx, bool isWrite)
    {
        const HotReq req = q[idx];
        q.erase(idx);

        RefBank &bank = banks_[req.bank];
        const RefBank::Access acc =
            bank.reserve(bankTiming_, eq_.now(), req.row);

        Tick occupancy = bankTiming_.burst +
                         req.extraDataClocks * timing_.period;
        if (isWrite != lastWasWrite_) {
            occupancy += timing_.turnaround;
            turnarounds.inc();
        }
        lastWasWrite_ = isWrite;

        const Tick dataStart = placeBus(acc.dataReadyAt, occupancy, true);
        const Tick dataEnd = dataStart + occupancy;
        busBusy_ += occupancy;

        if (acc.rowHit)
            rowHits.inc();
        else
            rowMisses.inc();

        const Tick ioDelay = timing_.ioDelay;
        if (isWrite) {
            casWrites.inc();
        } else {
            casReads.inc();
            readQueueDelay.sample(
                static_cast<double>(dataStart - req.enqueuedAt));
            readLatency.sample(static_cast<double>(dataEnd + ioDelay -
                                                   req.enqueuedAt));
        }

        EventQueue::Callback cb = callbacks_.take(req.cb);
        if (cb) {
            const Tick doneAt = isWrite ? dataEnd : dataEnd + ioDelay;
            eq_.schedule(doneAt, std::move(cb));
        }
    }

    void
    kick()
    {
        kicks.inc();
        while (true) {
            const std::size_t readLen = readQueueLen();
            if (readLen == 0 && writeQ_.empty()) {
                kicksEmpty.inc();
                return;
            }

            if (draining_) {
                if (writeQ_.size() <= cfg_.writeQueueLow)
                    draining_ = false;
            } else if (writeQ_.size() >= cfg_.writeQueueHigh) {
                draining_ = true;
            }

            const bool fromWrites =
                (draining_ && !writeQ_.empty()) || readLen == 0;

            std::pair<const HotReq *, std::size_t> spans[4];
            std::size_t nspans;
            if (fromWrites) {
                spans[0] = writeQ_.seg0();
                spans[1] = writeQ_.seg1();
                nspans = 2;
            } else {
                spans[0] = readDemandQ_.seg0();
                spans[1] = readDemandQ_.seg1();
                spans[2] = readLowQ_.seg0();
                spans[3] = readLowQ_.seg1();
                nspans = 4;
            }
            const Pick p = pickSpans(
                spans, nspans,
                std::min<std::size_t>(fromWrites ? writeQ_.size()
                                                 : readLen,
                                      cfg_.schedulerScanDepth));

            const Tick start =
                placeBus(p.dataReadyAt, bankTiming_.burst, false);
            if (start > eq_.now() + timing_.maxAhead) {
                kicksWait.inc();
                scheduleKick(start - timing_.maxAhead);
                return;
            }

            kicksIssue.inc();
            if (fromWrites)
                issue(writeQ_, p.idx, true);
            else if (p.idx < readDemandQ_.size())
                issue(readDemandQ_, p.idx, false);
            else
                issue(readLowQ_, p.idx - readDemandQ_.size(), false);
        }
    }

    EventQueue &eq_;
    const DramConfig &cfg_;
    BankTiming bankTiming_;
    ChannelTiming timing_;

    RingDeque<HotReq> readDemandQ_;
    RingDeque<HotReq> readLowQ_;
    RingDeque<HotReq> writeQ_;
    SlotPool<EventQueue::Callback> callbacks_;
    std::vector<RefBank> banks_;

    /** Future bus reservations [start, end), sorted by start tick. */
    std::vector<std::pair<Tick, Tick>> busResv_;

    bool lastWasWrite_ = false;
    bool draining_ = false;
    bool kickPending_ = false;
    Tick nextKickAt_ = 0;
    Tick busBusy_ = 0;
};

} // namespace dapsim

#endif // DAPSIM_TESTS_REFERENCE_CHANNEL_HH
